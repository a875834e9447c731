// Write-ahead log behind the durable NodeStore backend.
//
// On-disk layout (all I/O via StorageEnv): a node's directory holds numbered
// append-only segments `wal-00000001.log`, `wal-00000002.log`, ... Each
// record is framed as
//
//   [u32 len][u32 crc32][u8 type][payload]        (len = 1 + payload bytes,
//                                                  crc over type + payload)
//
// with little-endian fixed-width fields throughout. Record types mirror the
// NodeStore mutators (insert / remove / set-kind / install-pointer /
// remove-pointer) plus kSnapshotBegin, which marks a compacted full-state
// snapshot: replay resets the store when it sees one, so a snapshot segment
// supersedes everything before it.
//
// Commit points: mutators append records to the active segment immediately;
// Commit() fsyncs it. The ops layer calls Commit() before any ack or receipt
// leaves the node — the write-ahead contract is "durable before acked", so a
// crash can lose unacked work but never acked work.
//
// Recovery replays segments in sequence order into an empty store and stops
// at the FIRST truncated or CRC-bad record anywhere — everything after a
// tear is discarded, even records in later segments (a lying disk that
// dropped an fsync can leave a tear mid-history, and replaying past it
// would resurrect non-contiguous state). Recovery then immediately compacts,
// rewriting the log as one clean snapshot of exactly the replayed prefix,
// so tears only ever sit at the true crash point and nothing is ever
// appended after a possibly-torn tail.
//
// Compaction: when dead bytes (superseded or tombstone records) cross a
// threshold, the journal writes a full snapshot to `compact.tmp`, fsyncs it,
// renames it to the next segment number, and deletes the old segments. The
// journal keeps no per-file table to count dead bytes: each live replica or
// pointer has exactly one live record, so the store passes the size of the
// record an append supersedes (a removed replica's insert record, sized from
// its entry and payload; a replaced or removed pointer's fixed-size record).
// Every step is crash-safe: an orphaned compact.tmp is ignored and deleted by
// the next recovery, and until the rename lands the old segments are
// authoritative.
#ifndef SRC_STORAGE_WAL_H_
#define SRC_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/storage/node_store.h"
#include "src/storage/storage_env.h"

namespace past {

// CRC-32 (IEEE 802.3 polynomial, table-driven, eight bytes per step) over
// `data`.
uint32_t Crc32(std::string_view data);

struct DurableOptions {
  // Roll the active segment once it exceeds this many bytes.
  uint64_t segment_max_bytes = 256 * 1024;
  // Compact only once the journal holds at least this many record bytes...
  uint64_t compact_min_bytes = 64 * 1024;
  // ...and at least this fraction of them is dead.
  double compact_dead_fraction = 0.5;
};

class NodeStoreJournal {
 public:
  enum class RecordType : uint8_t {
    kInsert = 1,
    kRemove = 2,
    kSetKind = 3,
    kInstallPointer = 4,
    kRemovePointer = 5,
    kSnapshotBegin = 6,
  };

  struct RecoveryStats {
    uint64_t segments_replayed = 0;
    uint64_t records_replayed = 0;
    // True when a segment ended in a truncated or CRC-bad record that replay
    // discarded (the uncommitted tail of a crash).
    bool tail_truncated = false;
  };

  // Journal for a fresh (empty) directory.
  static std::unique_ptr<NodeStoreJournal> Create(StorageEnv& env, std::string dir,
                                                  const DurableOptions& opts);

  // Replays whatever `dir` holds into `store` (which must be empty and have
  // no journal attached — replayed mutations must not re-journal), then
  // returns a journal positioned on a fresh segment after the replayed ones.
  static std::unique_ptr<NodeStoreJournal> Recover(StorageEnv& env, std::string dir,
                                                   const DurableOptions& opts, NodeStore& store,
                                                   RecoveryStats* stats = nullptr);

  // --- appends (called by the NodeStore mutators) ---

  // `payload` may be null (size-only replica).
  void AppendInsert(const FileId& id, const ReplicaEntry& entry, const ReplicaPayload* payload);
  // `insert_record_bytes`: InsertRecordBytes() of the replica being removed,
  // whose live insert record this tombstone supersedes.
  void AppendRemove(const FileId& id, uint64_t insert_record_bytes);
  void AppendSetKind(const FileId& id, ReplicaKind kind);
  // `replaced`: the store overwrote a live pointer for `id`.
  void AppendInstallPointer(const FileId& id, const DiversionPointer& ptr, bool replaced);
  // Only for a pointer the store actually held.
  void AppendRemovePointer(const FileId& id);

  // Framed size of the insert record of a replica carrying `payload`.
  static uint64_t InsertRecordBytes(const ReplicaPayload* payload);

  // Fsyncs the active segment; true when every record appended so far is
  // durable. Cheap no-op when nothing was appended since the last Commit.
  // Once an env call has failed (crashed disk), stays false forever.
  bool Commit();

  bool ShouldCompact() const;
  // Rewrites the journal as one snapshot of `store`'s live state. Failures
  // leave the old segments authoritative (and the journal failed()).
  void Compact(const NodeStore& store);

  // Replay helper: wipes `store` when a kSnapshotBegin record is applied
  // (friendship bridge for the record-apply code).
  static void ResetStoreForReplay(NodeStore& store);

  bool failed() const { return failed_; }
  const std::string& dir() const { return dir_; }
  uint64_t total_bytes() const { return total_bytes_; }
  size_t segment_count() const { return segments_.size(); }

 private:
  NodeStoreJournal(StorageEnv& env, std::string dir, const DurableOptions& opts);

  static std::string SegmentName(uint64_t seq);
  void SetActiveSegment(uint64_t seq);

  // Starts framing a `type` record in frame_; the caller appends its payload.
  void BeginRecord(RecordType type);
  // Seals the record in frame_ and appends it to the active segment, rolling
  // segments. `superseded_bytes` of earlier live records become dead, and so
  // does the record itself when it is a `tombstone`.
  void AppendRecord(uint64_t superseded_bytes, bool tombstone);

  StorageEnv& env_;
  std::string dir_;
  DurableOptions opts_;

  std::vector<uint64_t> segments_;  // sealed + active, ascending
  uint64_t active_seq_ = 0;
  std::string active_name_;  // SegmentName(active_seq_)
  uint64_t active_bytes_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t dead_bytes_ = 0;
  std::string frame_;  // the record being appended, framed in place

  bool dirty_ = false;
  bool failed_ = false;
  bool compacting_ = false;
};

}  // namespace past

#endif  // SRC_STORAGE_WAL_H_
