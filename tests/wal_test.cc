// Write-ahead journal internals: the CRC-32 that frames every record, and
// the dead-byte accounting that decides when the journal compacts.
//
// The journal keeps no per-file table of live records; the store tells each
// append which record it supersedes. The differential test below checks
// that against a reference model that does keep per-file shadow maps of
// live record sizes, with record sizes taken from the on-disk format in
// wal.h. Compaction must fire at the same op in both, and the byte and
// segment counts must agree after every op.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/rng.h"
#include "src/storage/node_store.h"
#include "src/storage/storage_env.h"
#include "src/storage/wal.h"

namespace past {
namespace {

// Bit-at-a-time CRC-32 (reflected IEEE polynomial), the textbook form.
uint32_t BitwiseCrc32(std::string_view data) {
  uint32_t c = 0xFFFFFFFFu;
  for (char ch : data) {
    c ^= static_cast<uint8_t>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(7);
  std::string buf(300 + 8, '\0');
  for (char& ch : buf) {
    ch = static_cast<char>(rng.NextBelow(256));
  }
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 300; ++len) {
      std::string_view data(buf.data() + start, len);
      ASSERT_EQ(Crc32(data), BitwiseCrc32(data)) << "start " << start << " len " << len;
    }
  }
}

FileId MakeFileId(uint8_t tag) {
  std::array<uint8_t, 20> bytes{};
  bytes[0] = tag;
  bytes[7] = 0x3C;
  return FileId(bytes);
}

// The journal's accounting as a per-FileId shadow map of each subject's live
// insert or install record, fed with record sizes from the format:
// [u32 len][u32 crc][u8 type] and the type's payload.
class JournalModel {
 public:
  explicit JournalModel(const DurableOptions& opts) : opts_(opts) {}

  static uint64_t InsertBytes(bool has_cert, const std::string* content) {
    uint64_t payload = FileId::kBytes + 1 + 8 + 1 + 1;
    if (has_cert) {
      payload += FileId::kBytes + 20 + 4 + 5 * 8;  // id, digest, k, 5 u64 fields
    }
    if (content != nullptr) {
      payload += 8 + content->size();
    }
    return kFrame + payload;
  }

  void Insert(uint8_t tag, uint64_t record_bytes) {
    ASSERT_EQ(live_replica_.count(tag), 0u);
    live_replica_[tag] = record_bytes;
    Append(record_bytes, 0, false);
  }
  void Remove(uint8_t tag) {
    uint64_t prev = live_replica_.at(tag);
    live_replica_.erase(tag);
    Append(kFrame + FileId::kBytes, prev, true);
  }
  void SetKind() { Append(kFrame + FileId::kBytes + 1, 0, true); }
  void InstallPointer(uint8_t tag) {
    auto it = live_pointer_.find(tag);
    uint64_t prev = it == live_pointer_.end() ? 0 : it->second;
    live_pointer_[tag] = kPointerBytes;
    Append(kPointerBytes, prev, false);
  }
  void RemovePointer(uint8_t tag) {
    uint64_t prev = live_pointer_.at(tag);
    live_pointer_.erase(tag);
    Append(kFrame + FileId::kBytes, prev, true);
  }
  // Recovery replays the directory and rewrites it as one snapshot, unless
  // nothing was ever written there.
  void Recover() {
    if (written_) {
      Snapshot();
    }
  }

  bool HasReplica(uint8_t tag) const { return live_replica_.count(tag) != 0; }
  uint64_t total_bytes() const { return total_; }
  size_t segment_count() const { return segments_; }
  int compactions() const { return compactions_; }
  int rolls() const { return rolls_; }

 private:
  static constexpr uint64_t kFrame = 9;
  static constexpr uint64_t kPointerBytes = kFrame + FileId::kBytes + 8 + 8 + 1 + 8;

  void Append(uint64_t bytes, uint64_t superseded, bool tombstone) {
    written_ = true;
    if (active_ > 0 && active_ + bytes > opts_.segment_max_bytes) {
      ++segments_;
      ++rolls_;
      active_ = 0;
    }
    active_ += bytes;
    total_ += bytes;
    dead_ += superseded + (tombstone ? bytes : 0);
    if (total_ >= opts_.compact_min_bytes &&
        static_cast<double>(dead_) >=
            opts_.compact_dead_fraction * static_cast<double>(total_)) {
      Snapshot();
      ++compactions_;
    }
  }
  void Snapshot() {
    total_ = kFrame;  // kSnapshotBegin
    for (const auto& [tag, bytes] : live_replica_) {
      total_ += bytes;
    }
    for (const auto& [tag, bytes] : live_pointer_) {
      total_ += bytes;
    }
    dead_ = 0;
    active_ = 0;
    segments_ = 2;  // the snapshot and a fresh active segment
  }

  DurableOptions opts_;
  std::map<uint8_t, uint64_t> live_replica_;
  std::map<uint8_t, uint64_t> live_pointer_;
  uint64_t total_ = 0;
  uint64_t dead_ = 0;
  uint64_t active_ = 0;
  size_t segments_ = 1;
  bool written_ = false;
  int compactions_ = 0;
  int rolls_ = 0;
};

// Sum of the journal's segment files as the disk holds them.
uint64_t DiskBytes(FaultEnv& env) {
  uint64_t bytes = 0;
  for (const std::string& name : env.List("n")) {
    std::string data;
    EXPECT_TRUE(env.Read("n", name, &data));
    bytes += data.size();
  }
  return bytes;
}

class JournalAccountingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JournalAccountingTest, DeadBytesMatchAShadowMapModel) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  DurableOptions opts;
  opts.segment_max_bytes = 160 + rng.NextBelow(200);
  opts.compact_min_bytes = 200 + rng.NextBelow(400);
  opts.compact_dead_fraction = 0.3 + 0.1 * static_cast<double>(rng.NextBelow(4));
  constexpr uint64_t kCapacity = 2000;
  constexpr int kOps = 800;

  FaultEnv env;
  NodeStore store(kCapacity);
  store.EnableDurability(env, "n", opts);
  JournalModel model(opts);
  int recoveries = 0;

  for (int op = 0; op < kOps; ++op) {
    const uint8_t tag = static_cast<uint8_t>(rng.NextBelow(12));
    const FileId id = MakeFileId(tag);
    const uint64_t action = rng.NextBelow(40);
    if (action < 12) {
      const ReplicaKind kind = rng.NextBool(0.5) ? ReplicaKind::kPrimary : ReplicaKind::kDiverted;
      const uint64_t size = 1 + rng.NextBelow(300);
      FileCertificateRef cert;
      if (rng.NextBool(0.5)) {
        auto c = std::make_shared<FileCertificate>();
        c->file_id = id;
        c->salt = rng.NextU64();
        cert = std::move(c);
      }
      FileContentRef content;
      if (rng.NextBool(0.4)) {
        content = std::make_shared<const std::string>(rng.NextBelow(40), static_cast<char>('a' + tag));
      }
      const uint64_t record_bytes = JournalModel::InsertBytes(cert != nullptr, content.get());
      const bool expect_stored = !model.HasReplica(tag) && size <= store.free_bytes();
      ASSERT_EQ(store.StoreReplica(id, kind, size, cert, content), expect_stored) << "op " << op;
      if (expect_stored) {
        model.Insert(tag, record_bytes);
      }
    } else if (action < 20) {
      const bool removed = store.RemoveReplica(id).has_value();
      ASSERT_EQ(removed, model.HasReplica(tag)) << "op " << op;
      if (removed) {
        model.Remove(tag);
      }
    } else if (action < 25) {
      const ReplicaKind kind = rng.NextBool(0.5) ? ReplicaKind::kPrimary : ReplicaKind::kDiverted;
      const ReplicaEntry* entry = store.GetReplica(id);
      const bool journals = entry != nullptr && entry->kind != kind;
      store.SetReplicaKind(id, kind);
      if (journals) {
        model.SetKind();
      }
    } else if (action < 33) {
      // Often an overwrite: only 12 subjects.
      const PointerRole role = rng.NextBool(0.5) ? PointerRole::kDiverter : PointerRole::kWitness;
      store.InstallPointer(id, NodeId(rng.NextU64(), rng.NextU64()), role, rng.NextBelow(1000));
      model.InstallPointer(tag);
    } else if (action < 39) {
      if (store.RemovePointer(id)) {
        model.RemovePointer(tag);
      }
    } else {
      NodeStore recovered(kCapacity);
      ASSERT_TRUE(recovered.RecoverDurable(env, "n", opts)) << "op " << op;
      store = std::move(recovered);
      model.Recover();
      ++recoveries;
    }
    const NodeStoreJournal* journal = store.journal();
    ASSERT_FALSE(journal->failed()) << "op " << op;
    ASSERT_EQ(journal->total_bytes(), model.total_bytes()) << "op " << op;
    ASSERT_EQ(journal->segment_count(), model.segment_count()) << "op " << op;
    ASSERT_EQ(DiskBytes(env), journal->total_bytes()) << "op " << op;
  }
  // The stream must have exercised every branch of the accounting.
  EXPECT_GE(model.compactions(), 5);
  EXPECT_GE(model.rolls(), 5);
  EXPECT_GE(recoveries, 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalAccountingTest, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace past
