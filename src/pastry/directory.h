// NodeDirectory: the one lookup surface a Pastry node's routing state needs
// from its surroundings — id interning, index->id resolution, liveness, and
// the proximity metric.
//
// Before this existed, every node carried two std::function closures
// (proximity for the routing table, proximity for the neighborhood set) and
// every aliveness check was an id -> index hash probe through a callback.
// At a million nodes that is two heap-allocated closures per node and a
// cache-missing probe per leaf-set member per routing hop. The directory
// replaces all of it with one shared struct of C function pointers: nodes
// store dense u32 indices instead of 16-byte ids where possible, aliveness
// is an array load, and the per-node footprint drops by the closures plus
// the fattened entries.
//
// Proximity is keyed by index too. The locality heuristic compares an
// owner with a candidate millions of times per overlay build (every routing
// slot and neighborhood position a joining node considers), and an id-keyed
// metric costs two hash probes per comparison; the index-keyed one reads two
// entries of a dense coordinate array. Routing state therefore compares and
// stores indices only: an id reaches it through intern (where it is stored)
// or find (where it is only looked for).
//
// PastryNetwork provides the implementation (backed by its interning table,
// alive bits, and per-index coordinates, the one place a Pastry node's
// coordinate is stored).
#ifndef SRC_PASTRY_DIRECTORY_H_
#define SRC_PASTRY_DIRECTORY_H_

#include <cstdint>

#include "src/common/node_id.h"

namespace past {

// Sentinel for "no entry" in index-valued routing state.
inline constexpr uint32_t kInvalidNodeIndex = static_cast<uint32_t>(-1);

// Plain function pointers + context, not virtuals: the directory is consulted
// on every hop of every route, and a PastryNode must stay trivially small —
// one 8-byte pointer to a struct shared by the whole overlay.
struct NodeDirectory {
  void* ctx = nullptr;

  // Returns the dense index for `id`, interning it if never seen. Indices
  // are stable for the directory's lifetime.
  uint32_t (*intern)(void* ctx, const NodeId& id) = nullptr;

  // The index of `id` if it was ever interned, kInvalidNodeIndex otherwise.
  // Never interns: lookups for removal or membership must not grow the
  // directory.
  uint32_t (*find)(void* ctx, const NodeId& id) = nullptr;

  // The id interned at `index` (valid for any index returned by intern).
  const NodeId& (*resolve)(void* ctx, uint32_t index) = nullptr;

  // Liveness of the node interned at `index`.
  bool (*alive)(void* ctx, uint32_t index) = nullptr;

  // Proximity distance between the nodes interned at `a` and `b` (1e9 when
  // either is dead, e.g. a failed node). Read live on
  // every call: callers must not cache it, since a member's distance jumps
  // to 1e9 when it fails. May be null: consumers then treat all nodes as
  // equidistant, matching the historical "no proximity function" behavior.
  double (*distance)(void* ctx, uint32_t a, uint32_t b) = nullptr;
};

}  // namespace past

#endif  // SRC_PASTRY_DIRECTORY_H_
