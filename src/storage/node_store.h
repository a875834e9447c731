// Per-node persistent storage state.
//
// A PAST node's disk holds (a) primary replicas (the node is one of the k
// numerically closest to the fileId), (b) diverted replicas (held on behalf
// of a leaf-set neighbor), and (c) diversion pointers: file-table entries
// referring to a replica held elsewhere, installed at the diverting node A
// and at the (k+1)-th closest node C so that neither single failure loses
// track of the replica (paper section 3.3). The remainder of the advertised
// capacity is available to the cache.
#ifndef SRC_STORAGE_NODE_STORE_H_
#define SRC_STORAGE_NODE_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/file_id.h"
#include "src/common/flat_table.h"
#include "src/common/node_id.h"
#include "src/crypto/certificates.h"

namespace past {

class NodeStoreJournal;
class StorageEnv;
struct DurableOptions;

enum class ReplicaKind {
  kPrimary,   // stored because we are among the k closest
  kDiverted,  // stored on behalf of a diverting leaf-set neighbor
};

// All k replicas of a file share one immutable certificate, so entries hold
// it by shared pointer (at paper scale ~9.3M replica entries exist).
using FileCertificateRef = std::shared_ptr<const FileCertificate>;
// File bodies are immutable too; replicas of the same file share the bytes.
// Null for trace-driven experiments, which track sizes only.
using FileContentRef = std::shared_ptr<const std::string>;

// The per-replica record every store operation touches: 16 bytes, so a
// node's replica table stays dense at simulation scale. Certificate and
// content references — carried only by durability- and content-bearing
// workloads, never by size-only simulations — live in a per-node slab;
// `payload` indexes it and fills what would otherwise be padding after
// `kind` (read it through NodeStore::PayloadOf).
struct ReplicaEntry {
  static constexpr uint32_t kNoPayload = UINT32_MAX;

  uint64_t size = 0;
  ReplicaKind kind = ReplicaKind::kPrimary;
  uint32_t payload = kNoPayload;
};
static_assert(sizeof(ReplicaEntry) == 16);

// Optional heavyweight attachments of a replica.
struct ReplicaPayload {
  FileCertificateRef certificate;
  FileContentRef content;
};

// The role a diversion pointer plays at this node.
enum class PointerRole {
  kDiverter,  // we are node A: one of the k closest, diverted our replica to B
  kWitness,   // we are node C: the (k+1)-th closest, shadowing A's pointer
};

struct DiversionPointer {
  NodeId holder;  // node B actually storing the replica
  PointerRole role;
  uint64_t size = 0;
};

class NodeStore {
 public:
  explicit NodeStore(uint64_t capacity_bytes);
  ~NodeStore();  // out-of-line: journal_ points at an incomplete type here
  NodeStore(NodeStore&&) = default;
  NodeStore& operator=(NodeStore&&) = default;

  uint64_t capacity() const { return capacity_; }
  uint64_t used() const { return used_; }
  // Remaining free space F_N: capacity minus replica bytes. Cached copies do
  // not count — they are evictable at any time.
  uint64_t free_bytes() const { return capacity_ - used_; }

  // --- replicas ---

  // Unconditionally stores a replica (policy checks happen in the PAST
  // layer). Returns false if it physically cannot fit.
  bool StoreReplica(const FileId& id, ReplicaKind kind, uint64_t size,
                    FileCertificateRef certificate, FileContentRef content = nullptr);

  bool HasReplica(const FileId& id) const;
  const ReplicaEntry* GetReplica(const FileId& id) const;

  // Payload accessors: null when the replica is absent or carries none.
  FileCertificateRef GetCertificate(const FileId& id) const;
  FileContentRef GetContent(const FileId& id) const;
  // The payload of an entry of this store, or null when it carries none.
  // Readers that already hold the entry use this instead of a second probe.
  const ReplicaPayload* PayloadOf(const ReplicaEntry& entry) const {
    return entry.payload == ReplicaEntry::kNoPayload ? nullptr : &payload_slab_[entry.payload];
  }

  // Drops a replica, freeing its space. Returns its size, or nullopt.
  std::optional<uint64_t> RemoveReplica(const FileId& id);

  // Changes the bookkeeping kind of an existing replica (e.g. a diverted
  // replica being migrated/promoted after membership change).
  bool SetReplicaKind(const FileId& id, ReplicaKind kind);

  // Open-addressing table; iteration (structured bindings) and size() work
  // as with the former unordered_map, in deterministic slot order.
  using ReplicaTable = FlatTable<FileId, ReplicaEntry, FileIdHash>;
  const ReplicaTable& replicas() const { return replicas_; }

  // --- diversion pointers ---

  void InstallPointer(const FileId& id, const NodeId& holder, PointerRole role, uint64_t size);
  const DiversionPointer* GetPointer(const FileId& id) const;
  bool RemovePointer(const FileId& id);
  using PointerTable = FlatTable<FileId, DiversionPointer, FileIdHash>;
  const PointerTable& pointers() const { return pointers_; }

  // --- test-only fault injection ---

  // Silently drops a replica WITHOUT releasing its bytes: the entry vanishes
  // from the file table while used() keeps charging for it, exactly the
  // store-corruption a crashed-and-restarted disk could exhibit. Exists so
  // the simulation harness can demonstrate invariant detection and failing-
  // seed minimization on a guaranteed violation; never called by protocol
  // code. Nothing is journaled, so the replica's insert record stays counted
  // live until the next compaction. Returns false if the replica was not
  // present.
  bool TestOnlyCorruptDropReplica(const FileId& id);

  // --- durability ---
  //
  // By default the store is purely in-memory. With a journal attached, every
  // mutator appends a write-ahead record before returning, and Commit()
  // fsyncs them; the ops layer calls Commit() before any ack or receipt
  // leaves the node, so acked state survives a crash (src/storage/wal.h).

  // Attaches a fresh write-ahead journal in `dir` (which must be empty —
  // this is for a brand-new node). All I/O goes through `env`.
  void EnableDurability(StorageEnv& env, std::string dir, const DurableOptions& opts);

  // Replays `dir` into this (empty, journal-less) store and attaches the
  // recovered journal. Returns false when the directory could not be
  // re-journaled (the replayed in-memory state is still usable).
  bool RecoverDurable(StorageEnv& env, std::string dir, const DurableOptions& opts);

  // Fsyncs outstanding journal records. True when everything appended so far
  // is durable; trivially true with no journal attached.
  bool Commit();

  bool has_journal() const { return journal_ != nullptr; }
  const NodeStoreJournal* journal() const { return journal_.get(); }

  // Shrinks the tables' first allocation from 16 slots to 4 (they still
  // grow normally). A 16-slot replica table costs ~600 bytes; at million-
  // node scale, where the average node holds ~3 replicas, that default is
  // the single largest per-node heap block. Early slot order differs from
  // the default, so this is only for deployments whose consumers never
  // observe table iteration order (the scale engine qualifies: snapshots
  // sort, counts are commutative); the message-level simulator's committed
  // golden fingerprints depend on the default and must not opt in. Must be
  // called before the first insert.
  void SetCompactTables() {
    replicas_.set_initial_capacity(4);
    pointers_.set_initial_capacity(4);
  }

  // --- stats ---

  size_t replica_count() const { return replicas_.size(); }
  size_t primary_count() const { return primary_count_; }
  size_t diverted_count() const { return replicas_.size() - primary_count_; }

 private:
  friend class NodeStoreJournal;

  // Replay support: wipes tables and counters when a snapshot record resets
  // the store mid-replay. Only the journal calls this.
  void ResetForRecovery();
  // Compacts the journal when its dead-byte threshold is crossed.
  void MaybeCompact();
  // Drops the refs in an entry's slab slot at once and frees the slot.
  void ReleasePayload(const ReplicaEntry& entry);

  uint64_t capacity_;
  uint64_t used_ = 0;
  size_t primary_count_ = 0;
  ReplicaTable replicas_;
  // Payloads of the replicas that carry cert/content, by ReplicaEntry::
  // payload; freed slots are reused before the slab grows.
  std::vector<ReplicaPayload> payload_slab_;
  std::vector<uint32_t> free_payloads_;
  PointerTable pointers_;
  std::unique_ptr<NodeStoreJournal> journal_;
};

}  // namespace past

#endif  // SRC_STORAGE_NODE_STORE_H_
