#include "src/storage/wal.h"

#include <array>
#include <cstring>
#include <utility>

namespace past {

namespace {

constexpr char kCompactTmp[] = "compact.tmp";

// Framing constants: [u32 len][u32 crc32] header, then the u8 type.
constexpr uint64_t kHeaderBytes = 8;
constexpr uint64_t kInsertFixedBytes = kHeaderBytes + 1 + FileId::kBytes + 1 + 8 + 1 + 1;
constexpr uint64_t kCertificateBytes = FileId::kBytes + sizeof(Sha1Digest) + 4 + 5 * 8;
constexpr uint64_t kPointerRecordBytes = kHeaderBytes + 1 + FileId::kBytes + 8 + 8 + 1 + 8;

// Slicing-by-8 tables: table 0 is the classic bytewise table, and entry i
// of table k is the CRC of byte i followed by k zero bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

uint32_t LoadU32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutFileId(std::string* out, const FileId& id) {
  out->append(reinterpret_cast<const char*>(id.bytes().data()), FileId::kBytes);
}

void PutDigest(std::string* out, const Sha1Digest& digest) {
  out->append(reinterpret_cast<const char*>(digest.data()), digest.size());
}

// Bounds-checked little-endian reader over one record payload.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) {
      return false;
    }
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool U32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) {
      return false;
    }
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool U64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) {
      return false;
    }
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool Id(FileId* id) {
    if (pos_ + FileId::kBytes > data_.size()) {
      return false;
    }
    std::array<uint8_t, FileId::kBytes> bytes;
    std::memcpy(bytes.data(), data_.data() + pos_, FileId::kBytes);
    pos_ += FileId::kBytes;
    *id = FileId(bytes);
    return true;
  }
  bool Digest(Sha1Digest* digest) {
    if (pos_ + digest->size() > data_.size()) {
      return false;
    }
    std::memcpy(digest->data(), data_.data() + pos_, digest->size());
    pos_ += digest->size();
    return true;
  }
  bool Bytes(size_t n, std::string* out) {
    if (pos_ + n > data_.size()) {
      return false;
    }
    out->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// Opens a record at the end of `out`: a header placeholder, then the type.
// The caller appends the payload and seals the record with EndFrame.
size_t BeginFrame(std::string* out, NodeStoreJournal::RecordType type) {
  size_t start = out->size();
  out->append(kHeaderBytes, '\0');
  out->push_back(static_cast<char>(type));
  return start;
}

// Patches the length and CRC (over type + payload) of the record at `start`.
void EndFrame(std::string* out, size_t start) {
  std::string_view body(out->data() + start + kHeaderBytes, out->size() - start - kHeaderBytes);
  std::string header;
  PutU32(&header, static_cast<uint32_t>(body.size()));
  PutU32(&header, Crc32(body));
  out->replace(start, kHeaderBytes, header);
}

void PutInsert(std::string* out, const FileId& id, const ReplicaEntry& entry,
               const ReplicaPayload* payload) {
  PutFileId(out, id);
  out->push_back(static_cast<char>(entry.kind == ReplicaKind::kPrimary ? 0 : 1));
  PutU64(out, entry.size);
  const FileCertificate* cert = payload != nullptr ? payload->certificate.get() : nullptr;
  const std::string* content = payload != nullptr ? payload->content.get() : nullptr;
  out->push_back(cert != nullptr ? 1 : 0);
  if (cert != nullptr) {
    PutFileId(out, cert->file_id);
    PutDigest(out, cert->content_hash);
    PutU32(out, cert->replication_factor);
    PutU64(out, cert->salt);
    PutU64(out, cert->creation_date);
    PutU64(out, cert->owner.modulus);
    PutU64(out, cert->owner.exponent);
    PutU64(out, cert->signature.value);
  }
  out->push_back(content != nullptr ? 1 : 0);
  if (content != nullptr) {
    PutU64(out, content->size());
    out->append(*content);
  }
}

bool DecodeInsert(std::string_view payload, FileId* id, ReplicaEntry* entry,
                  ReplicaPayload* attachments) {
  Reader r(payload);
  uint8_t kind = 0;
  uint8_t has_cert = 0;
  uint8_t has_content = 0;
  if (!r.Id(id) || !r.U8(&kind) || !r.U64(&entry->size) || !r.U8(&has_cert)) {
    return false;
  }
  entry->kind = kind == 0 ? ReplicaKind::kPrimary : ReplicaKind::kDiverted;
  if (has_cert != 0) {
    FileCertificate c;
    if (!r.Id(&c.file_id) || !r.Digest(&c.content_hash) || !r.U32(&c.replication_factor) ||
        !r.U64(&c.salt) || !r.U64(&c.creation_date) || !r.U64(&c.owner.modulus) ||
        !r.U64(&c.owner.exponent) || !r.U64(&c.signature.value)) {
      return false;
    }
    attachments->certificate = std::make_shared<const FileCertificate>(c);
  }
  if (!r.U8(&has_content)) {
    return false;
  }
  if (has_content != 0) {
    uint64_t len = 0;
    std::string bytes;
    if (!r.U64(&len) || !r.Bytes(static_cast<size_t>(len), &bytes)) {
      return false;
    }
    attachments->content = std::make_shared<const std::string>(std::move(bytes));
  }
  return r.AtEnd();
}

void PutPointer(std::string* out, const FileId& id, const DiversionPointer& ptr) {
  PutFileId(out, id);
  PutU64(out, Uint128High64(ptr.holder.value()));
  PutU64(out, Uint128Low64(ptr.holder.value()));
  out->push_back(static_cast<char>(ptr.role == PointerRole::kDiverter ? 0 : 1));
  PutU64(out, ptr.size);
}

bool DecodePointer(std::string_view payload, FileId* id, DiversionPointer* ptr) {
  Reader r(payload);
  uint64_t hi = 0;
  uint64_t lo = 0;
  uint8_t role = 0;
  if (!r.Id(id) || !r.U64(&hi) || !r.U64(&lo) || !r.U8(&role) || !r.U64(&ptr->size) ||
      !r.AtEnd()) {
    return false;
  }
  ptr->holder = NodeId(hi, lo);
  ptr->role = role == 0 ? PointerRole::kDiverter : PointerRole::kWitness;
  return true;
}

// Applies one decoded record to the store. Returns false on a structurally
// bad payload (replay stops there, same as a CRC failure).
bool ApplyRecord(NodeStore& store, uint8_t type, std::string_view payload) {
  using RT = NodeStoreJournal::RecordType;
  switch (static_cast<RT>(type)) {
    case RT::kInsert: {
      FileId id;
      ReplicaEntry entry;
      ReplicaPayload attachments;
      if (!DecodeInsert(payload, &id, &entry, &attachments)) {
        return false;
      }
      store.StoreReplica(id, entry.kind, entry.size, std::move(attachments.certificate),
                         std::move(attachments.content));
      return true;
    }
    case RT::kRemove: {
      Reader r(payload);
      FileId id;
      if (!r.Id(&id) || !r.AtEnd()) {
        return false;
      }
      store.RemoveReplica(id);
      return true;
    }
    case RT::kSetKind: {
      Reader r(payload);
      FileId id;
      uint8_t kind = 0;
      if (!r.Id(&id) || !r.U8(&kind) || !r.AtEnd()) {
        return false;
      }
      store.SetReplicaKind(id, kind == 0 ? ReplicaKind::kPrimary : ReplicaKind::kDiverted);
      return true;
    }
    case RT::kInstallPointer: {
      FileId id;
      DiversionPointer ptr;
      if (!DecodePointer(payload, &id, &ptr)) {
        return false;
      }
      store.InstallPointer(id, ptr.holder, ptr.role, ptr.size);
      return true;
    }
    case RT::kRemovePointer: {
      Reader r(payload);
      FileId id;
      if (!r.Id(&id) || !r.AtEnd()) {
        return false;
      }
      store.RemovePointer(id);
      return true;
    }
    case RT::kSnapshotBegin:
      if (!payload.empty()) {
        return false;
      }
      NodeStoreJournal::ResetStoreForReplay(store);
      return true;
  }
  return false;  // unknown type: stop, same as torn
}

// Parses wal-<8 digits>.log; 0 when the name is not a segment.
uint64_t SegmentSeq(const std::string& name) {
  if (name.size() != 16 || name.compare(0, 4, "wal-") != 0 ||
      name.compare(12, 4, ".log") != 0) {
    return 0;
  }
  uint64_t seq = 0;
  for (size_t i = 4; i < 12; ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return 0;
    }
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const CrcTables kT = MakeCrcTables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = c ^ LoadU32(p);
    uint32_t hi = LoadU32(p + 4);
    c = kT[7][lo & 0xff] ^ kT[6][(lo >> 8) & 0xff] ^ kT[5][(lo >> 16) & 0xff] ^ kT[4][lo >> 24] ^
        kT[3][hi & 0xff] ^ kT[2][(hi >> 8) & 0xff] ^ kT[1][(hi >> 16) & 0xff] ^ kT[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kT[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

NodeStoreJournal::NodeStoreJournal(StorageEnv& env, std::string dir, const DurableOptions& opts)
    : env_(env), dir_(std::move(dir)), opts_(opts) {}

std::string NodeStoreJournal::SegmentName(uint64_t seq) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "wal-%08llu.log", static_cast<unsigned long long>(seq));
  return buf;
}

void NodeStoreJournal::SetActiveSegment(uint64_t seq) {
  active_seq_ = seq;
  active_name_ = SegmentName(seq);
}

uint64_t NodeStoreJournal::InsertRecordBytes(const ReplicaPayload* payload) {
  uint64_t bytes = kInsertFixedBytes;
  if (payload != nullptr && payload->certificate != nullptr) {
    bytes += kCertificateBytes;
  }
  if (payload != nullptr && payload->content != nullptr) {
    bytes += 8 + payload->content->size();
  }
  return bytes;
}

std::unique_ptr<NodeStoreJournal> NodeStoreJournal::Create(StorageEnv& env, std::string dir,
                                                           const DurableOptions& opts) {
  auto journal =
      std::unique_ptr<NodeStoreJournal>(new NodeStoreJournal(env, std::move(dir), opts));
  journal->SetActiveSegment(1);
  journal->segments_ = {1};
  return journal;
}

void NodeStoreJournal::ResetStoreForReplay(NodeStore& store) { store.ResetForRecovery(); }

std::unique_ptr<NodeStoreJournal> NodeStoreJournal::Recover(StorageEnv& env, std::string dir,
                                                            const DurableOptions& opts,
                                                            NodeStore& store,
                                                            RecoveryStats* stats) {
  auto journal =
      std::unique_ptr<NodeStoreJournal>(new NodeStoreJournal(env, std::move(dir), opts));
  RecoveryStats local;
  std::vector<uint64_t> seqs;
  for (const std::string& name : env.List(journal->dir_)) {
    if (name == kCompactTmp) {
      env.Remove(journal->dir_, name);  // orphan of an interrupted compaction
      continue;
    }
    uint64_t seq = SegmentSeq(name);
    if (seq != 0) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());

  // Replay in sequence order, stopping at the first truncated or CRC-bad
  // record anywhere: appends after recovery always open a fresh segment and
  // recovery rewrites the log as one clean snapshot below, so a tear can
  // only sit at the very point the previous incarnation crashed.
  bool stopped = false;
  for (uint64_t seq : seqs) {
    if (stopped) {
      break;
    }
    std::string bytes;
    if (!env.Read(journal->dir_, SegmentName(seq), &bytes)) {
      break;
    }
    ++local.segments_replayed;
    size_t pos = 0;
    while (pos < bytes.size()) {
      if (pos + 8 > bytes.size()) {
        local.tail_truncated = true;
        stopped = true;
        break;
      }
      uint32_t len = 0;
      uint32_t crc = 0;
      for (int i = 0; i < 4; ++i) {
        len |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[pos + i])) << (8 * i);
        crc |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[pos + 4 + i])) << (8 * i);
      }
      if (len == 0 || pos + 8 + len > bytes.size()) {
        local.tail_truncated = true;
        stopped = true;
        break;
      }
      std::string_view body(bytes.data() + pos + 8, len);
      if (Crc32(body) != crc ||
          !ApplyRecord(store, static_cast<uint8_t>(body[0]), body.substr(1))) {
        local.tail_truncated = true;
        stopped = true;
        break;
      }
      ++local.records_replayed;
      pos += 8 + len;
    }
  }

  if (seqs.empty()) {
    journal->SetActiveSegment(1);
    journal->segments_ = {1};
  } else {
    // Rewrite the log as one snapshot of the recovered state: any torn tail
    // is discarded for good and replay of this directory starts clean.
    journal->SetActiveSegment(seqs.back());
    journal->segments_ = std::move(seqs);
    journal->Compact(store);
  }
  if (stats != nullptr) {
    *stats = local;
  }
  return journal;
}

void NodeStoreJournal::BeginRecord(RecordType type) {
  frame_.clear();
  BeginFrame(&frame_, type);
}

void NodeStoreJournal::AppendRecord(uint64_t superseded_bytes, bool tombstone) {
  if (failed_) {
    return;
  }
  EndFrame(&frame_, 0);
  if (active_bytes_ > 0 && active_bytes_ + frame_.size() > opts_.segment_max_bytes) {
    // Seal the full segment durably before opening the next one, so an
    // unsynced tail can never sit in the middle of the log.
    if (!env_.Fsync(dir_, active_name_)) {
      failed_ = true;
      return;
    }
    SetActiveSegment(active_seq_ + 1);
    segments_.push_back(active_seq_);
    active_bytes_ = 0;
  }
  if (!env_.Append(dir_, active_name_, frame_)) {
    failed_ = true;
    return;
  }
  active_bytes_ += frame_.size();
  dirty_ = true;
  total_bytes_ += frame_.size();
  // Tombstones vanish at the next snapshot, so they are dead from the start.
  dead_bytes_ += superseded_bytes + (tombstone ? frame_.size() : 0);
}

void NodeStoreJournal::AppendInsert(const FileId& id, const ReplicaEntry& entry,
                                    const ReplicaPayload* payload) {
  // Never supersedes anything: StoreReplica refuses a FileId it already
  // holds before it journals, so the subject has no live insert record.
  BeginRecord(RecordType::kInsert);
  PutInsert(&frame_, id, entry, payload);
  AppendRecord(0, /*tombstone=*/false);
}

void NodeStoreJournal::AppendRemove(const FileId& id, uint64_t insert_record_bytes) {
  BeginRecord(RecordType::kRemove);
  PutFileId(&frame_, id);
  AppendRecord(insert_record_bytes, /*tombstone=*/true);
}

void NodeStoreJournal::AppendSetKind(const FileId& id, ReplicaKind kind) {
  BeginRecord(RecordType::kSetKind);
  PutFileId(&frame_, id);
  frame_.push_back(static_cast<char>(kind == ReplicaKind::kPrimary ? 0 : 1));
  AppendRecord(0, /*tombstone=*/true);
}

void NodeStoreJournal::AppendInstallPointer(const FileId& id, const DiversionPointer& ptr,
                                            bool replaced) {
  BeginRecord(RecordType::kInstallPointer);
  PutPointer(&frame_, id, ptr);
  AppendRecord(replaced ? kPointerRecordBytes : 0, /*tombstone=*/false);
}

void NodeStoreJournal::AppendRemovePointer(const FileId& id) {
  BeginRecord(RecordType::kRemovePointer);
  PutFileId(&frame_, id);
  AppendRecord(kPointerRecordBytes, /*tombstone=*/true);
}

bool NodeStoreJournal::Commit() {
  if (failed_) {
    return false;
  }
  if (!dirty_) {
    return true;
  }
  if (!env_.Fsync(dir_, active_name_)) {
    failed_ = true;
    return false;
  }
  dirty_ = false;
  return true;
}

bool NodeStoreJournal::ShouldCompact() const {
  if (failed_ || compacting_ || total_bytes_ < opts_.compact_min_bytes) {
    return false;
  }
  return static_cast<double>(dead_bytes_) >=
         opts_.compact_dead_fraction * static_cast<double>(total_bytes_);
}

void NodeStoreJournal::Compact(const NodeStore& store) {
  if (failed_ || compacting_) {
    return;
  }
  compacting_ = true;

  std::string blob;
  EndFrame(&blob, BeginFrame(&blob, RecordType::kSnapshotBegin));
  for (const auto& [id, entry] : store.replicas()) {
    size_t start = BeginFrame(&blob, RecordType::kInsert);
    PutInsert(&blob, id, entry, store.PayloadOf(entry));
    EndFrame(&blob, start);
  }
  for (const auto& [id, ptr] : store.pointers()) {
    size_t start = BeginFrame(&blob, RecordType::kInstallPointer);
    PutPointer(&blob, id, ptr);
    EndFrame(&blob, start);
  }

  uint64_t snap_seq = active_seq_ + 1;
  env_.Remove(dir_, kCompactTmp);  // clear any stale orphan first
  bool ok = env_.Append(dir_, kCompactTmp, blob) && env_.Fsync(dir_, kCompactTmp) &&
            env_.Rename(dir_, kCompactTmp, SegmentName(snap_seq));
  if (!ok) {
    // Old segments stay authoritative; the journal is dead from here on.
    failed_ = true;
    compacting_ = false;
    return;
  }
  for (uint64_t seq : segments_) {
    env_.Remove(dir_, SegmentName(seq));
  }
  SetActiveSegment(snap_seq + 1);
  segments_ = {snap_seq, active_seq_};
  active_bytes_ = 0;
  total_bytes_ = blob.size();
  dead_bytes_ = 0;
  dirty_ = false;
  compacting_ = false;
}

}  // namespace past
