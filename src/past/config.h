// PAST configuration (paper sections 3 and 4).
#ifndef SRC_PAST_CONFIG_H_
#define SRC_PAST_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/pastry/config.h"
#include "src/storage/policies.h"

namespace past {

enum class CacheMode {
  kNone,
  kLru,
  kGreedyDualSize,  // paper policy
};

struct PastConfig {
  // Number of replicas per file. Chosen to meet availability targets; the
  // evaluation fixes k = 5. Must satisfy k <= l/2 + 1.
  uint32_t k = 5;

  // Replica / file diversion thresholds (paper defaults).
  StoragePolicy policy;

  // Replica placement rule (src/storage/policies.h). The default is the
  // paper's k-closest-with-diversion scheme; the other kinds are ablated by
  // bench_policies and bench_ablation_diversion_policy.
  PlacementPolicy placement;

  // Enables replica diversion into the leaf set (section 3.3).
  bool enable_replica_diversion = true;

  // Enables file diversion: on a negative ack the client re-salts the fileId
  // and retries elsewhere in the nodeId space (section 3.4).
  bool enable_file_diversion = true;

  // Caching (section 4): eviction policy and the admission fraction c — a
  // routed-through file is cached only if its size is below c times the
  // node's current cache capacity.
  CacheMode cache_mode = CacheMode::kNone;
  double cache_fraction_c = 1.0;

  // Flash-crowd guard: a file is admitted to a node's cache only if making
  // room for it would evict at most this fraction of the cache budget
  // (insertion-cost cap). 0 disables the cap (pre-refactor behavior).
  double cache_insertion_cost_cap = 0.0;

  // When true, membership changes trigger replica maintenance (section 3.5).
  // Storage experiments without churn disable it to skip the scan.
  bool enable_maintenance = true;

  // When true, per-node store tables start at 4 slots instead of 16 (see
  // NodeStore::SetCompactTables). Set only by the scale engine: early table
  // slot order differs from the default, and the message-level simulator's
  // committed fingerprints depend on the default order.
  bool compact_store_tables = false;
};

// Checks a deployment's PAST and Pastry parameters, alone and against each
// other (thresholds, replication factor vs. leaf set, cache knobs). Returns
// human-readable errors; empty means the pair is runnable.
std::vector<std::string> ValidatePastConfig(const PastConfig& past, const PastryConfig& pastry);

}  // namespace past

#endif  // SRC_PAST_CONFIG_H_
