// SimRunner: deterministic whole-system simulation soak.
//
// One seed drives everything: a ChurnScheduler timeline of client operations
// interleaved with joins, silent crashes and partitions is executed against
// a full PAST deployment over the SimTransport with a probabilistic fault
// plan active. At periodic quiescent checkpoints the runner zeroes the fault
// plan, runs the failure-detection horizon and a maintenance sweep, finalizes
// in-flight reclaims, reconciles genuinely-lost files, and hands the network
// to the InvariantChecker; probe lookups then confirm every surviving file
// is still reachable. The first violation aborts the run with a description.
//
// MinimizeFailure shrinks a failing configuration: binary search for the
// shortest failing schedule prefix, then pruning of whole event classes,
// then a final re-bisect. Because schedules are generated in full and only
// filtered at execution, every shrink step replays a sub-multiset of the
// original events. SerializeSimConfig / ParseSimConfig round-trip a config
// through the text repro files that `sim_soak --repro` loads.
#ifndef SRC_SIM_SIM_RUNNER_H_
#define SRC_SIM_SIM_RUNNER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/fault_plan.h"
#include "src/sim/churn_schedule.h"

namespace past {

inline constexpr uint64_t kNoCorruption = std::numeric_limits<uint64_t>::max();
inline constexpr size_t kAllEvents = std::numeric_limits<size_t>::max();

struct SimConfig {
  uint64_t seed = 1;

  // Deployment shape.
  size_t num_nodes = 24;
  uint64_t capacity_per_node = 4'000'000;
  uint32_t k = 3;
  size_t num_clients = 3;
  uint64_t quota_per_client = 48'000'000;

  // Durable stores: every node journals into a shared in-memory FaultEnv
  // (write-ahead log + replay; src/storage/wal.h). With no injected storage
  // faults the run is bit-identical to the in-memory default — the journal
  // draws no entropy and commits always succeed. Required for kRecover
  // events to bring a node back with its old directory contents.
  bool durable_store = false;

  // Timeline.
  ScheduleOptions schedule;
  // Invariant checkpoint every this many schedule positions (a final
  // checkpoint always runs at end of schedule).
  size_t checkpoint_every = 40;
  // Client operations allowed in flight at once. Every op is submitted
  // through the async engine (PastClient::Begin*); 1 (the default) is a
  // serialized window that drives each op to completion before the next
  // schedule position, and above 1 ops overlap on the virtual timeline.
  // Each checkpoint first audits the mid-flight invariants, then drains all
  // ops before the quiescent protocol runs.
  size_t max_in_flight = 1;
  // Execute only schedule positions [0, max_events) — the minimizer's
  // truncation knob. kAllEvents means the full timeline.
  size_t max_events = kAllEvents;
  // Event classes the runner executes; disabled events are skipped without
  // disturbing the rest of the timeline — the minimizer's pruning knob.
  std::array<bool, kSimEventClassCount> enabled = {true, true, true, true,
                                                   true, true, true};

  // Fault plan active between checkpoints.
  FaultPlan faults{/*drop*/ 0.03, /*duplicate*/ 0.02, /*delay_p*/ 0.05, /*delay_ms*/ 40.0};

  // Test-only sabotage: after executing the event at this schedule position,
  // silently corrupt one node's store (see NodeStore::TestOnlyCorruptDrop-
  // Replica) so the next checkpoint must flag it. kNoCorruption disables.
  uint64_t corrupt_at_event = kNoCorruption;
};

struct SimResult {
  bool ok = false;
  std::string failure;  // empty iff ok
  size_t events_executed = 0;
  size_t checkpoints = 0;

  uint64_t files_inserted = 0;
  uint64_t files_reclaimed = 0;
  uint64_t files_lost = 0;
  uint64_t lookups = 0;
  uint64_t joins = 0;
  uint64_t crashes = 0;
  uint64_t partitions = 0;
  // kRecover accounting: nodes taken down and brought back with their
  // directory, and what the rejoin audit kept/dropped (src/past RejoinOutcome).
  uint64_t recoveries = 0;
  uint64_t replicas_recovered = 0;
  uint64_t replicas_dropped = 0;

  // SHA-1 hex over the generated timeline / the final network state. Equal
  // seeds must produce equal fingerprints run to run.
  std::string schedule_fingerprint;
  std::string state_fingerprint;
};

class SimRunner {
 public:
  explicit SimRunner(const SimConfig& config);
  SimResult Run();

 private:
  SimConfig config_;
};

struct MinimizeOutcome {
  SimConfig minimized;        // re-verified failing configuration
  size_t original_events = 0;   // schedule positions executed by the input
  size_t minimized_events = 0;  // positions the minimized config replays
  std::vector<std::string> pruned_classes;
  std::string failure;  // failure of the minimized config
  size_t runs = 0;      // re-executions the search needed
};

// Shrinks `failing`; nullopt if the configuration does not actually fail.
std::optional<MinimizeOutcome> MinimizeFailure(const SimConfig& failing);

// Text repro format: "key=value" lines plus '#' comments; unknown keys are
// ignored so old binaries load newer files. `failure` is embedded as a
// comment for humans.
std::string SerializeSimConfig(const SimConfig& config, std::string_view failure = {});
std::optional<SimConfig> ParseSimConfig(const std::string& text);

}  // namespace past

#endif  // SRC_SIM_SIM_RUNNER_H_
