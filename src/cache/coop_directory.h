// CoopDirectory: the brokered-pointer state behind the cooperative cache
// (modeled on fs123's distrib_cache_backend).
//
// Every cached copy a node holds may be *advertised* to one broker (its
// directory "owner" — chosen by the caller, typically via rendezvous hashing
// over the holder's leaf set). The broker then resolves cache probes from
// its neighbors to the advertised holder, turning the neighborhood's unused
// disk into one cooperative cache.
//
// This class is pure bookkeeping — no network or PAST dependencies — and it
// maintains a strict bijection between the broker-side view (owner -> file
// -> holder) and the holder-side reverse index (holder -> file -> owner)
// so retraction on eviction/reclaim/failure is O(1) per entry:
//
//   * Advertise(owner, file, holder): records the pointer; a re-advertise of
//     the same file to the same owner displaces the previous holder's entry
//     (and its reverse ad).
//   * RetractHolder(holder, file): drops the pointer when the holder evicts
//     or purges the cached copy. This is how a coop pointer never outlives
//     the cached replica it brokers (the InvariantChecker audits exactly
//     this).
//   * OnNodeFailed(node): drops the node's broker shard and every pointer
//     naming it as holder.
//
// Determinism: all maps are hashed, but every externally visible order
// (Snapshot) is sorted, so fingerprints and audits are reproducible.
#ifndef SRC_CACHE_COOP_DIRECTORY_H_
#define SRC_CACHE_COOP_DIRECTORY_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/file_id.h"
#include "src/common/node_id.h"

namespace past {

struct CoopAuditEntry {
  NodeId owner;
  FileId file;
  NodeId holder;
};

class CoopDirectory {
 public:
  // Records holder's cached copy of `file` with broker `owner`.
  void Advertise(const NodeId& owner, const FileId& file, const NodeId& holder);

  // Drops the pointer for (holder, file), wherever it was advertised. Safe
  // to call when no ad exists (eviction of a never-advertised entry).
  void RetractHolder(const NodeId& holder, const FileId& file);

  // Broker-side probe resolution: the advertised holder, if any.
  std::optional<NodeId> Resolve(const NodeId& owner, const FileId& file) const;

  // Removes every trace of `node`: its broker shard and every pointer that
  // names it as holder.
  void OnNodeFailed(const NodeId& node);

  size_t size() const { return size_; }
  uint64_t advertised() const { return advertised_; }
  uint64_t retracted() const { return retracted_; }

  // Every (owner, file, holder) entry, sorted, for invariant audits.
  std::vector<CoopAuditEntry> Snapshot() const;

 private:
  using FileMap = std::unordered_map<FileId, NodeId, FileIdHash>;

  void EraseDirEntry(const NodeId& owner, const FileId& file);

  // Broker view: owner -> file -> holder.
  std::unordered_map<NodeId, FileMap, NodeIdHash> dir_;
  // Reverse index: holder -> file -> owner (for O(1) retraction).
  std::unordered_map<NodeId, FileMap, NodeIdHash> ads_;
  size_t size_ = 0;
  uint64_t advertised_ = 0;
  uint64_t retracted_ = 0;
};

}  // namespace past

#endif  // SRC_CACHE_COOP_DIRECTORY_H_
