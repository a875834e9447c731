// Fault injection plan for SimTransport.
//
// Models the failure semantics the paper's evaluation leaves implicit: a
// message may be dropped, delayed, or delivered twice, and a node may be cut
// off from the network entirely (partition). All randomness comes from the
// transport's own seeded generator, so a (seed, workload) pair reproduces
// the exact same fault sequence — experiments under faults stay
// deterministic and debuggable.
#ifndef SRC_NET_FAULT_PLAN_H_
#define SRC_NET_FAULT_PLAN_H_

#include <cstdint>

namespace past {

struct FaultPlan {
  // Per-message probability that it silently vanishes in transit. The
  // sender gets no error; protocols discover loss by timeout (a missing
  // reply after the transport settles).
  double drop_probability = 0.0;

  // Per-message probability that it is delivered twice (both copies at the
  // same simulated arrival time, FIFO order preserved). Receivers must be
  // idempotent.
  double duplicate_probability = 0.0;

  // Per-message probability of adding `delay_ms` of extra latency.
  double delay_probability = 0.0;
  double delay_ms = 0.0;
};

}  // namespace past

#endif  // SRC_NET_FAULT_PLAN_H_
