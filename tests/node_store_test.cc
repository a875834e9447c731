#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "src/storage/node_store.h"
#include "src/storage/storage_env.h"
#include "src/storage/wal.h"

namespace past {
namespace {

FileId MakeFileId(uint8_t tag) {
  std::array<uint8_t, 20> bytes{};
  bytes[0] = tag;
  return FileId(bytes);
}

TEST(NodeStoreTest, StoreAndRetrieve) {
  NodeStore store(1000);
  FileCertificateRef cert = std::make_shared<const FileCertificate>();
  EXPECT_TRUE(store.StoreReplica(MakeFileId(1), ReplicaKind::kPrimary, 400, cert));
  EXPECT_TRUE(store.HasReplica(MakeFileId(1)));
  EXPECT_EQ(store.used(), 400u);
  EXPECT_EQ(store.free_bytes(), 600u);
  const ReplicaEntry* entry = store.GetReplica(MakeFileId(1));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->size, 400u);
  EXPECT_EQ(entry->kind, ReplicaKind::kPrimary);
}

TEST(NodeStoreTest, RejectsOverflow) {
  NodeStore store(1000);
  FileCertificateRef cert = std::make_shared<const FileCertificate>();
  EXPECT_FALSE(store.StoreReplica(MakeFileId(1), ReplicaKind::kPrimary, 1001, cert));
  EXPECT_TRUE(store.StoreReplica(MakeFileId(1), ReplicaKind::kPrimary, 1000, cert));
  EXPECT_FALSE(store.StoreReplica(MakeFileId(2), ReplicaKind::kPrimary, 1, cert));
}

TEST(NodeStoreTest, DuplicateFileIdRejected) {
  NodeStore store(1000);
  FileCertificateRef cert = std::make_shared<const FileCertificate>();
  EXPECT_TRUE(store.StoreReplica(MakeFileId(1), ReplicaKind::kPrimary, 100, cert));
  EXPECT_FALSE(store.StoreReplica(MakeFileId(1), ReplicaKind::kPrimary, 100, cert));
  EXPECT_EQ(store.used(), 100u);
}

TEST(NodeStoreTest, RemoveFreesSpace) {
  NodeStore store(1000);
  FileCertificateRef cert = std::make_shared<const FileCertificate>();
  store.StoreReplica(MakeFileId(1), ReplicaKind::kPrimary, 100, cert);
  auto removed = store.RemoveReplica(MakeFileId(1));
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, 100u);
  EXPECT_EQ(store.used(), 0u);
  EXPECT_FALSE(store.RemoveReplica(MakeFileId(1)).has_value());
}

TEST(NodeStoreTest, CountsPrimaryAndDiverted) {
  NodeStore store(1000);
  FileCertificateRef cert = std::make_shared<const FileCertificate>();
  store.StoreReplica(MakeFileId(1), ReplicaKind::kPrimary, 100, cert);
  store.StoreReplica(MakeFileId(2), ReplicaKind::kDiverted, 100, cert);
  store.StoreReplica(MakeFileId(3), ReplicaKind::kDiverted, 100, cert);
  EXPECT_EQ(store.replica_count(), 3u);
  EXPECT_EQ(store.primary_count(), 1u);
  EXPECT_EQ(store.diverted_count(), 2u);
  store.RemoveReplica(MakeFileId(2));
  EXPECT_EQ(store.diverted_count(), 1u);
}

TEST(NodeStoreTest, SetReplicaKindRebalancesCounters) {
  NodeStore store(1000);
  FileCertificateRef cert = std::make_shared<const FileCertificate>();
  store.StoreReplica(MakeFileId(1), ReplicaKind::kDiverted, 100, cert);
  EXPECT_TRUE(store.SetReplicaKind(MakeFileId(1), ReplicaKind::kPrimary));
  EXPECT_EQ(store.primary_count(), 1u);
  EXPECT_EQ(store.diverted_count(), 0u);
  EXPECT_FALSE(store.SetReplicaKind(MakeFileId(9), ReplicaKind::kPrimary));
}

TEST(NodeStoreTest, PointerLifecycle) {
  NodeStore store(1000);
  NodeId holder(7, 7);
  store.InstallPointer(MakeFileId(1), holder, PointerRole::kDiverter, 256);
  const DiversionPointer* ptr = store.GetPointer(MakeFileId(1));
  ASSERT_NE(ptr, nullptr);
  EXPECT_EQ(ptr->holder, holder);
  EXPECT_EQ(ptr->role, PointerRole::kDiverter);
  EXPECT_EQ(ptr->size, 256u);
  // Pointers occupy no storage space.
  EXPECT_EQ(store.used(), 0u);
  EXPECT_TRUE(store.RemovePointer(MakeFileId(1)));
  EXPECT_FALSE(store.RemovePointer(MakeFileId(1)));
  EXPECT_EQ(store.GetPointer(MakeFileId(1)), nullptr);
}

TEST(NodeStoreTest, ZeroByteFilesAccepted) {
  // The NLANR trace contains 0-byte files; they must store cleanly.
  NodeStore store(10);
  FileCertificateRef cert = std::make_shared<const FileCertificate>();
  EXPECT_TRUE(store.StoreReplica(MakeFileId(1), ReplicaKind::kPrimary, 0, cert));
  EXPECT_EQ(store.used(), 0u);
  EXPECT_TRUE(store.HasReplica(MakeFileId(1)));
}

// --- the payload slab behind ReplicaEntry::payload ---

FileCertificateRef MakeCert(uint8_t tag) {
  auto cert = std::make_shared<FileCertificate>();
  cert->file_id = MakeFileId(tag);
  cert->salt = tag;
  return cert;
}

FileContentRef MakeContent(uint8_t tag) {
  return std::make_shared<const std::string>("body-" + std::to_string(tag));
}

TEST(NodeStoreTest, SizeOnlyReplicaCarriesNoPayload) {
  NodeStore store(1000);
  ASSERT_TRUE(store.StoreReplica(MakeFileId(1), ReplicaKind::kPrimary, 10, nullptr));
  const ReplicaEntry* entry = store.GetReplica(MakeFileId(1));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->payload, ReplicaEntry::kNoPayload);
  EXPECT_EQ(store.PayloadOf(*entry), nullptr);
  EXPECT_EQ(store.GetCertificate(MakeFileId(1)), nullptr);
  EXPECT_EQ(store.GetContent(MakeFileId(1)), nullptr);
  EXPECT_EQ(store.GetCertificate(MakeFileId(2)), nullptr);
}

TEST(NodeStoreTest, ReinsertReusesFreedPayloadHandles) {
  NodeStore store(1 << 20);
  for (uint8_t tag = 1; tag <= 4; ++tag) {
    ASSERT_TRUE(store.StoreReplica(MakeFileId(tag), ReplicaKind::kPrimary, 10, MakeCert(tag),
                                   MakeContent(tag)));
  }
  const uint32_t freed2 = store.GetReplica(MakeFileId(2))->payload;
  const uint32_t freed3 = store.GetReplica(MakeFileId(3))->payload;
  ASSERT_TRUE(store.RemoveReplica(MakeFileId(2)).has_value());
  ASSERT_TRUE(store.RemoveReplica(MakeFileId(3)).has_value());
  // A size-only replica takes no slot, so the freed handles stay free.
  ASSERT_TRUE(store.StoreReplica(MakeFileId(9), ReplicaKind::kPrimary, 10, nullptr));
  for (int cycle = 0; cycle < 3; ++cycle) {
    // The last freed handle is reused first.
    ASSERT_TRUE(store.StoreReplica(MakeFileId(5), ReplicaKind::kDiverted, 10, MakeCert(5),
                                   MakeContent(5)));
    ASSERT_TRUE(store.StoreReplica(MakeFileId(6), ReplicaKind::kPrimary, 10, nullptr,
                                   MakeContent(6)));
    EXPECT_EQ(store.GetReplica(MakeFileId(5))->payload, freed3);
    EXPECT_EQ(store.GetReplica(MakeFileId(6))->payload, freed2);
    for (uint8_t tag : {1, 4, 5}) {
      ASSERT_NE(store.GetCertificate(MakeFileId(tag)), nullptr);
      EXPECT_EQ(store.GetCertificate(MakeFileId(tag))->salt, tag);
      ASSERT_NE(store.GetContent(MakeFileId(tag)), nullptr);
      EXPECT_EQ(*store.GetContent(MakeFileId(tag)), "body-" + std::to_string(tag));
    }
    EXPECT_EQ(store.GetCertificate(MakeFileId(6)), nullptr);
    EXPECT_EQ(*store.GetContent(MakeFileId(6)), "body-6");
    EXPECT_EQ(store.GetCertificate(MakeFileId(2)), nullptr);
    ASSERT_TRUE(store.RemoveReplica(MakeFileId(6)).has_value());
    ASSERT_TRUE(store.RemoveReplica(MakeFileId(5)).has_value());
    EXPECT_EQ(store.GetContent(MakeFileId(5)), nullptr);
  }
}

TEST(NodeStoreTest, PayloadRefsAreReleasedOnRemoveCorruptDropAndReset) {
  NodeStore store(1 << 20);
  FileCertificateRef cert = MakeCert(1);
  FileContentRef content = MakeContent(1);
  ASSERT_TRUE(store.StoreReplica(MakeFileId(1), ReplicaKind::kPrimary, 10, cert, content));
  ASSERT_TRUE(store.StoreReplica(MakeFileId(2), ReplicaKind::kPrimary, 10, cert, content));
  ASSERT_TRUE(store.StoreReplica(MakeFileId(3), ReplicaKind::kPrimary, 10, cert, content));
  EXPECT_EQ(cert.use_count(), 4);
  EXPECT_EQ(content.use_count(), 4);

  ASSERT_TRUE(store.RemoveReplica(MakeFileId(1)).has_value());
  EXPECT_EQ(cert.use_count(), 3);
  EXPECT_EQ(content.use_count(), 3);

  ASSERT_TRUE(store.TestOnlyCorruptDropReplica(MakeFileId(2)));
  EXPECT_EQ(cert.use_count(), 2);
  EXPECT_EQ(content.use_count(), 2);

  NodeStoreJournal::ResetStoreForReplay(store);
  EXPECT_EQ(cert.use_count(), 1);
  EXPECT_EQ(content.use_count(), 1);
  EXPECT_EQ(store.replica_count(), 0u);
  // A reset store hands out handles from scratch.
  ASSERT_TRUE(store.StoreReplica(MakeFileId(4), ReplicaKind::kPrimary, 10, cert));
  EXPECT_EQ(store.GetReplica(MakeFileId(4))->payload, 0u);
}

TEST(NodeStoreTest, MovedStoreKeepsItsPayloads) {
  NodeStore source(1 << 20);
  ASSERT_TRUE(source.StoreReplica(MakeFileId(1), ReplicaKind::kPrimary, 10, MakeCert(1),
                                  MakeContent(1)));
  ASSERT_TRUE(source.StoreReplica(MakeFileId(2), ReplicaKind::kPrimary, 10, nullptr));
  ASSERT_TRUE(source.StoreReplica(MakeFileId(3), ReplicaKind::kDiverted, 10, MakeCert(3)));
  NodeStore moved(std::move(source));
  NodeStore assigned(1);
  assigned = std::move(moved);
  for (uint8_t tag : {1, 3}) {
    const ReplicaEntry* entry = assigned.GetReplica(MakeFileId(tag));
    ASSERT_NE(entry, nullptr);
    const ReplicaPayload* payload = assigned.PayloadOf(*entry);
    ASSERT_NE(payload, nullptr);
    ASSERT_NE(payload->certificate, nullptr);
    EXPECT_EQ(payload->certificate->salt, tag);
  }
  EXPECT_EQ(*assigned.GetContent(MakeFileId(1)), "body-1");
  EXPECT_EQ(assigned.GetContent(MakeFileId(3)), nullptr);
  EXPECT_EQ(assigned.PayloadOf(*assigned.GetReplica(MakeFileId(2))), nullptr);
}

TEST(NodeStoreTest, RecoveryReplaysCertificatesAndContent) {
  FaultEnv env;
  DurableOptions opts;
  NodeStore store(1 << 20);
  store.EnableDurability(env, "n", opts);
  for (uint8_t tag = 1; tag <= 6; ++tag) {
    FileContentRef content = tag % 2 == 0 ? MakeContent(tag) : nullptr;
    FileCertificateRef cert = tag % 3 == 0 ? nullptr : MakeCert(tag);
    ASSERT_TRUE(store.StoreReplica(MakeFileId(tag), ReplicaKind::kPrimary, tag, cert, content));
  }
  // Free a handle and hand it to a later insert before the crash.
  ASSERT_TRUE(store.RemoveReplica(MakeFileId(2)).has_value());
  ASSERT_TRUE(store.StoreReplica(MakeFileId(7), ReplicaKind::kDiverted, 7, MakeCert(7),
                                 MakeContent(7)));
  ASSERT_TRUE(store.Commit());

  NodeStore recovered(1 << 20);
  ASSERT_TRUE(recovered.RecoverDurable(env, "n", opts));
  EXPECT_EQ(recovered.replica_count(), store.replica_count());
  for (uint8_t tag = 1; tag <= 7; ++tag) {
    const FileId id = MakeFileId(tag);
    ASSERT_EQ(recovered.HasReplica(id), store.HasReplica(id)) << int{tag};
    const FileCertificateRef want_cert = store.GetCertificate(id);
    const FileCertificateRef got_cert = recovered.GetCertificate(id);
    ASSERT_EQ(got_cert == nullptr, want_cert == nullptr) << int{tag};
    if (want_cert != nullptr) {
      EXPECT_EQ(got_cert->file_id, want_cert->file_id);
      EXPECT_EQ(got_cert->salt, want_cert->salt);
    }
    const FileContentRef want_body = store.GetContent(id);
    const FileContentRef got_body = recovered.GetContent(id);
    ASSERT_EQ(got_body == nullptr, want_body == nullptr) << int{tag};
    if (want_body != nullptr) {
      EXPECT_EQ(*got_body, *want_body);
    }
  }
}

}  // namespace
}  // namespace past
