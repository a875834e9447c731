// Storage management policies (paper section 3.3.1) and the placement
// layer built on top of them.
//
// Two levels of decision live here:
//
//  * StoragePolicy — the per-node accept/reject threshold test. A node N
//    rejects a file D when S_D / F_N > t, where S_D is the file size, F_N
//    the node's remaining free space, and t a threshold: t_pri for nodes
//    acting as primary replica stores (among the k numerically closest) and
//    t_div (< t_pri) for nodes asked to hold a diverted replica. The policy
//    discriminates against large files as utilization rises, which keeps
//    room for the many small files and defers insert failures to high
//    utilization.
//
//  * PlacementPolicy — the network-level rule deciding *where* replicas
//    land: whether a k-closest node stores the primary itself, and which
//    leaf-set member receives a diverted replica. It is a plain value, one
//    PlacementKind plus the residual kind's shedding level; the paper's
//    scheme (k-closest with replica diversion by maximal free space) is the
//    default kind, and the others are ablated by bench_policies and
//    bench_ablation_diversion_policy.
//
// Determinism rules for placement decisions:
//  * Decisions are pure functions of the candidate lists handed in, the
//    answers of the provided DiversionEligibility probe, and draws taken
//    through the provided PlacementEntropy — never from any other source of
//    randomness — so a run is exactly reproducible from its seed and the
//    scale engine's --jobs N replay stays bit-identical.
//  * Candidates arrive in the caller's deterministic order (leaf-set
//    iteration order); a kind that ranks breaks ties by position so two
//    nodes with equal scores resolve identically on every replay.
//  * No state is kept between calls; all load/capacity signals ride in the
//    PlacementCandidate snapshot.
#ifndef SRC_STORAGE_POLICIES_H_
#define SRC_STORAGE_POLICIES_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "src/common/node_id.h"

namespace past {

struct StoragePolicy {
  // Threshold for primary replica stores. Paper default 0.1.
  double t_pri = 0.1;
  // Threshold for diverted replica stores. Paper default 0.05.
  double t_div = 0.05;

  // Accept/reject decision for a primary replica.
  bool AcceptPrimary(uint64_t file_size, uint64_t free_bytes) const {
    return Accept(file_size, free_bytes, t_pri);
  }

  // Accept/reject decision for a diverted replica.
  bool AcceptDiverted(uint64_t file_size, uint64_t free_bytes) const {
    return Accept(file_size, free_bytes, t_div);
  }

 private:
  static bool Accept(uint64_t file_size, uint64_t free_bytes, double threshold) {
    if (file_size > free_bytes) {
      return false;  // cannot fit even after evicting all cached content
    }
    if (free_bytes == 0) {
      return false;
    }
    return static_cast<double>(file_size) <= threshold * static_cast<double>(free_bytes);
  }
};

// A snapshot of one node's placement-relevant state, taken by the caller at
// decision time. `recent_load` is the node's served-operation tally since
// the last maintenance decay (see PastNode::NoteServedOp), backed by the
// obs counter "node.load.ops".
struct PlacementCandidate {
  NodeId id;
  uint64_t free_bytes = 0;
  uint64_t capacity_bytes = 0;
  uint64_t recent_load = 0;
  // Verdict of StoragePolicy::AcceptDiverted for the file being placed.
  bool accepts_diverted = false;
};

// The only randomness a placement decision may consume. The caller adapts
// this onto the network's seeded Rng so the draw sequence is part of the
// deterministic replay.
class PlacementEntropy {
 public:
  virtual ~PlacementEntropy() = default;
  // Uniform in [0, bound), bound > 0.
  virtual uint64_t NextBelow(uint64_t bound) = 0;
};

// Answers whether diversion candidate i may take the diverted replica, i.e.
// does not already hold a replica of the file. An answer costs a replica
// table probe on the candidate's node, so a policy asks only about the
// candidates its choice depends on, and at most once each.
class DiversionEligibility {
 public:
  virtual ~DiversionEligibility() = default;
  virtual bool Eligible(size_t i) = 0;
};

enum class PlacementKind {
  // The paper's scheme: every k-closest node that passes the threshold test
  // stores the primary, and a diverted replica goes to the eligible node
  // with maximal remaining free space.
  kKClosestDiversion,
  // The paper's primary rule with a uniformly random eligible diversion
  // target (ablation).
  kKClosestRandom,
  // The paper's primary rule with the first eligible diversion target that
  // would accept the replica, else the first eligible one (ablation).
  kKClosestFirstFit,
  // RPDP-style residual-performance placement: a hot primary sheds the
  // replica into the leaf set, and diversion targets are ranked by residual
  // capacity discounted by recent load.
  kResidualPerformance,
  // Sarshar–Roychowdhury random structure: diversion targets are drawn with
  // probability proportional to advertised capacity, growing a
  // capacity-weighted random placement graph.
  kRandomizedCacheSize,
};

const char* PlacementKindName(PlacementKind kind);
// Parses the names PlacementKindName prints ("kclosest", "kclosest-random",
// "kclosest-first-fit", "residual", "random"); nullopt for anything else.
std::optional<PlacementKind> PlacementKindFromName(const char* name);

// The replica placement rule. Both entry points mirror the two decision
// sites in the insert protocol (and its scale-engine replay): should the
// k-closest node `self` hold the primary, and — when it does not — which
// eligible leaf-set member takes the diverted replica.
struct PlacementPolicy {
  PlacementKind kind = PlacementKind::kKClosestDiversion;
  // kResidualPerformance: a primary whose recent_load is at or above this
  // sheds the replica into the leaf set even when the threshold test
  // passes. 0 disables shedding; the other kinds ignore it.
  uint64_t shed_load = 0;

  // Whether `self` (one of the k numerically closest) should store the
  // primary replica. `policy_accepts` is the StoragePolicy threshold
  // verdict for `self`; a kind may only tighten it (returning true when the
  // threshold rejects would overcommit the store).
  bool ShouldStorePrimary(const PlacementCandidate& self, bool policy_accepts) const;

  // Picks the diverted-replica target among `candidates`: every live
  // leaf-set member of the diverting node outside the k closest, in the
  // caller's deterministic order. Only candidates for which `eligibility`
  // answers true may be picked. Returns an index into `candidates`, or
  // nullopt when none is eligible.
  std::optional<size_t> ChooseDiversionTarget(std::span<const PlacementCandidate> candidates,
                                              DiversionEligibility& eligibility,
                                              PlacementEntropy& entropy) const;
};

}  // namespace past

#endif  // SRC_STORAGE_POLICIES_H_
