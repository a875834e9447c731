// Durable NodeStore recovery coverage.
//
// The crash matrix is the core guarantee: a deterministic mutation script
// runs against a FaultEnv, a crash is injected at EVERY syscall boundary
// (times a bank of torn-tail widths and seeds), and each crash point must
// replay to exactly one record-boundary prefix of the history, at least as
// long as the last acked Commit — no torn record ever surfaces, no acked
// write is ever lost. A separate sweep arms the lying-disk fault (an fsync
// that reports success without persisting) and shows the damage is still
// confined to record-boundary prefixes, acked-loss being precisely what a
// lying disk costs. Deployment-level tests pin the reclaim/ack ordering fix,
// its insert-side twin (no store receipt from a node that cannot commit)
// and the rejoin audit (recovered replicas re-advertised where still
// referenced, stale ones dropped, never double-counted).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/past/client.h"
#include "src/sim/invariant_checker.h"
#include "src/storage/node_store.h"
#include "src/storage/storage_env.h"
#include "src/storage/wal.h"

namespace past {
namespace {

FileId MakeFileId(uint8_t tag) {
  std::array<uint8_t, 20> bytes{};
  bytes[0] = tag;
  bytes[1] = 0xA5;
  return FileId(bytes);
}

FileCertificateRef MakeCert(const FileId& id) {
  auto cert = std::make_shared<FileCertificate>();
  cert->file_id = id;
  cert->replication_factor = 5;
  cert->salt = 17;
  cert->creation_date = 1000;
  return cert;
}

// Canonical text form of a store's full logical state (sorted, so FlatTable
// slot order — which replay does not preserve — cannot matter).
std::string Signature(const NodeStore& store) {
  std::vector<std::string> lines;
  for (const auto& [id, e] : store.replicas()) {
    std::string l = "R " + id.ToHex();
    l += e.kind == ReplicaKind::kPrimary ? " p" : " d";
    l += " s=" + std::to_string(e.size);
    if (const FileCertificateRef cert = store.GetCertificate(id); cert != nullptr) {
      l += " c=" + cert->file_id.ToHex() + "/" + std::to_string(cert->replication_factor) + "/" +
           std::to_string(cert->salt);
    }
    if (const FileContentRef content = store.GetContent(id); content != nullptr) {
      l += " b=" + *content;
    }
    lines.push_back(std::move(l));
  }
  for (const auto& [id, p] : store.pointers()) {
    std::string l = "P " + id.ToHex() + " h=" + p.holder.ToHex();
    l += p.role == PointerRole::kDiverter ? " a" : " c";
    l += " s=" + std::to_string(p.size);
    lines.push_back(std::move(l));
  }
  std::sort(lines.begin(), lines.end());
  std::string out = "used=" + std::to_string(store.used()) +
                    " prim=" + std::to_string(store.primary_count()) + "\n";
  for (const std::string& l : lines) {
    out += l + "\n";
  }
  return out;
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct ScriptRun {
  // signatures[i] = logical state after the first i ops (index 0 = empty).
  // In-memory application never touches the env, so these are identical
  // between the fault-free dry run and every faulted run of the same seed.
  std::vector<std::string> signatures;
  // Highest op index covered by a Commit() that returned true before the
  // env crashed: the acked prefix a recovery may never fall short of.
  size_t last_ok_commit = 0;
  // Highest op index whose record could have reached the disk (the op
  // during which the crash fired may have written its bytes first).
  size_t crash_bound = 0;
};

// Runs the deterministic mutation script for `seed` against a journaled
// store over `env`, committing every third op. Op draws are frozen up
// front per index, so the sequence is a pure function of the seed and is
// unaffected by injected faults.
ScriptRun RunScript(FaultEnv& env, uint64_t seed, size_t num_ops, const DurableOptions& opts) {
  NodeStore store(1 << 20);
  store.EnableDurability(env, "n", opts);
  ScriptRun run;
  run.crash_bound = num_ops;
  run.signatures.push_back(Signature(store));
  uint64_t state = seed;
  auto next = [&state]() { return state = Mix(state); };
  bool crashed_seen = false;
  auto note_crash = [&](size_t op) {
    if (!crashed_seen && env.crashed()) {
      crashed_seen = true;
      run.crash_bound = op;
    }
  };
  for (size_t i = 1; i <= num_ops; ++i) {
    uint64_t roll = next() % 100;
    FileId id = MakeFileId(static_cast<uint8_t>(next() % 13));
    if (roll < 45) {
      ReplicaKind kind = (next() & 1) != 0 ? ReplicaKind::kPrimary : ReplicaKind::kDiverted;
      uint64_t size = 50 + next() % 300;
      FileCertificateRef cert = (next() & 1) != 0 ? MakeCert(id) : nullptr;
      FileContentRef content =
          (next() & 1) != 0
              ? std::make_shared<const std::string>("blob" + std::to_string(next() % 97))
              : nullptr;
      store.StoreReplica(id, kind, size, cert, content);
    } else if (roll < 65) {
      store.RemoveReplica(id);
    } else if (roll < 75) {
      store.SetReplicaKind(id, (next() & 1) != 0 ? ReplicaKind::kPrimary
                                                 : ReplicaKind::kDiverted);
    } else if (roll < 90) {
      uint64_t hi = next();
      uint64_t lo = next();
      store.InstallPointer(id, NodeId(hi, lo),
                           (next() & 1) != 0 ? PointerRole::kDiverter : PointerRole::kWitness,
                           10 + next() % 100);
    } else {
      store.RemovePointer(id);
    }
    note_crash(i);
    run.signatures.push_back(Signature(store));
    if (i % 3 == 0) {
      bool ok = store.Commit();
      note_crash(i);
      if (ok && !env.crashed()) {
        run.last_ok_commit = i;
      }
    }
  }
  return run;
}

// --- the crash matrix ---

TEST(CrashMatrix, EveryCrashPointRecoversACommittedBoundaryPrefix) {
  DurableOptions opts;
  opts.segment_max_bytes = 512;  // small, so the script exercises rolls
  opts.compact_min_bytes = 1024;
  opts.compact_dead_fraction = 0.4;
  const size_t kOps = 40;
  const uint64_t kTorn[] = {0, 3, 1ull << 20};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    FaultEnv dry;
    ScriptRun base = RunScript(dry, seed, kOps, opts);
    ASSERT_EQ(base.last_ok_commit, kOps - kOps % 3);
    const uint64_t total = dry.syscalls();
    ASSERT_GT(total, 30u) << "script too small to be a meaningful matrix";
    for (uint64_t crash = 1; crash <= total; ++crash) {
      for (uint64_t torn : kTorn) {
        FaultEnv env;
        env.set_torn_tail_bytes(torn);
        env.set_crash_at(crash);
        ScriptRun run = RunScript(env, seed, kOps, opts);
        ASSERT_TRUE(env.crashed());
        ASSERT_EQ(run.signatures.back(), base.signatures.back());
        env.Restart();

        NodeStore recovered(1 << 20);
        ASSERT_TRUE(recovered.RecoverDurable(env, "n", opts))
            << "seed " << seed << " crash@" << crash << " torn " << torn;
        std::string got = Signature(recovered);
        bool matched = false;
        for (size_t i = run.last_ok_commit; i <= run.crash_bound && !matched; ++i) {
          matched = got == run.signatures[i];
        }
        ASSERT_TRUE(matched) << "seed " << seed << " crash@" << crash << " torn " << torn
                             << ": recovered state is not a boundary prefix in ["
                             << run.last_ok_commit << ", " << run.crash_bound
                             << "]\nrecovered:\n"
                             << got;
        // The recovered store is live: it can accept and commit new work.
        ASSERT_TRUE(recovered.Commit());
      }
    }
  }
}

TEST(CrashMatrix, DroppedFsyncConfinesDamageToBoundaryPrefixes) {
  // A lying disk (fsync reports success, persists nothing) CAN lose acked
  // work — that is the one fault no write-ahead protocol survives — but the
  // damage must stay a clean record-boundary prefix: no torn or reordered
  // state. Compaction stays disabled here: replaying a snapshot whose fsync
  // lied is equivalent to replaying a shorter prefix, but pinning exact
  // prefixes is only meaningful on the plain log.
  DurableOptions opts;
  opts.segment_max_bytes = 1ull << 30;
  opts.compact_min_bytes = 1ull << 30;
  const size_t kOps = 30;
  const uint64_t seed = 7;
  FaultEnv dry;
  ScriptRun base = RunScript(dry, seed, kOps, opts);
  const uint64_t total = dry.syscalls();
  bool acked_loss_seen = false;
  for (uint64_t drop = 1; drop <= total; ++drop) {
    FaultEnv env;
    env.set_drop_fsync_at(drop);  // no-op at indices that are not fsyncs
    ScriptRun run = RunScript(env, seed, kOps, opts);
    ASSERT_FALSE(env.crashed());
    env.CrashDir("n", 0);
    env.ReviveDir("n");

    NodeStore recovered(1 << 20);
    ASSERT_TRUE(recovered.RecoverDurable(env, "n", opts)) << "drop@" << drop;
    std::string got = Signature(recovered);
    size_t best = kOps + 1;
    for (size_t i = 0; i <= kOps; ++i) {
      if (got == run.signatures[i]) {
        best = i;  // keep the largest matching index
      }
    }
    ASSERT_LE(best, kOps) << "drop@" << drop
                          << ": recovered state is not any boundary prefix\n"
                          << got;
    if (best < run.last_ok_commit) {
      acked_loss_seen = true;
    }
  }
  // Dropping the final commit's fsync must actually cost acked work —
  // otherwise the sweep never armed a real fsync and proves nothing.
  EXPECT_TRUE(acked_loss_seen);
  EXPECT_EQ(base.last_ok_commit, kOps);
}

// --- targeted recovery unit tests ---

TEST(NodeStoreRecovery, CleanRecoveryIsExactAndRoundTripsPayloads) {
  FaultEnv env;
  DurableOptions opts;
  NodeStore store(1 << 20);
  store.EnableDurability(env, "n", opts);
  auto content = std::make_shared<const std::string>("payload");
  ASSERT_TRUE(store.StoreReplica(MakeFileId(1), ReplicaKind::kPrimary, 400,
                                 MakeCert(MakeFileId(1)), content));
  ASSERT_TRUE(store.StoreReplica(MakeFileId(2), ReplicaKind::kDiverted, 100, nullptr));
  store.InstallPointer(MakeFileId(3), NodeId(7, 9), PointerRole::kWitness, 77);
  ASSERT_TRUE(store.SetReplicaKind(MakeFileId(2), ReplicaKind::kPrimary));
  ASSERT_TRUE(store.StoreReplica(MakeFileId(4), ReplicaKind::kPrimary, 50, nullptr));
  ASSERT_TRUE(store.RemoveReplica(MakeFileId(4)).has_value());
  ASSERT_TRUE(store.Commit());

  NodeStore recovered(1 << 20);
  NodeStoreJournal::RecoveryStats stats;
  std::unique_ptr<NodeStoreJournal> journal =
      NodeStoreJournal::Recover(env, "n", opts, recovered, &stats);
  ASSERT_NE(journal, nullptr);
  EXPECT_FALSE(journal->failed());
  EXPECT_FALSE(stats.tail_truncated);
  EXPECT_GT(stats.records_replayed, 0u);
  EXPECT_EQ(Signature(recovered), Signature(store));

  const ReplicaEntry* entry = recovered.GetReplica(MakeFileId(1));
  ASSERT_NE(entry, nullptr);
  const FileCertificateRef cert = recovered.GetCertificate(MakeFileId(1));
  ASSERT_NE(cert, nullptr);
  EXPECT_EQ(cert->file_id, MakeFileId(1));
  EXPECT_EQ(cert->replication_factor, 5u);
  const FileContentRef body = recovered.GetContent(MakeFileId(1));
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(*body, "payload");
  const DiversionPointer* ptr = recovered.GetPointer(MakeFileId(3));
  ASSERT_NE(ptr, nullptr);
  EXPECT_EQ(ptr->holder, NodeId(7, 9));
}

TEST(NodeStoreRecovery, TornTailIsDiscardedNeverMisapplied) {
  FaultEnv env;
  DurableOptions opts;
  NodeStore store(1 << 20);
  store.EnableDurability(env, "n", opts);
  ASSERT_TRUE(store.StoreReplica(MakeFileId(1), ReplicaKind::kPrimary, 100,
                                 MakeCert(MakeFileId(1))));
  ASSERT_TRUE(store.Commit());
  ASSERT_TRUE(store.StoreReplica(MakeFileId(2), ReplicaKind::kPrimary, 200,
                                 MakeCert(MakeFileId(2))));
  // Never committed; power dies with 7 bytes of the record flushed — a tear
  // inside the second record's frame.
  env.CrashDir("n", 7);
  env.ReviveDir("n");

  NodeStore recovered(1 << 20);
  NodeStoreJournal::RecoveryStats stats;
  std::unique_ptr<NodeStoreJournal> journal =
      NodeStoreJournal::Recover(env, "n", opts, recovered, &stats);
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_FALSE(journal->failed());
  EXPECT_TRUE(recovered.HasReplica(MakeFileId(1)));
  EXPECT_FALSE(recovered.HasReplica(MakeFileId(2)));
  EXPECT_EQ(recovered.used(), 100u);
}

TEST(NodeStoreRecovery, CompactionBoundsTheLogAndPreservesState) {
  FaultEnv env;
  DurableOptions opts;
  opts.segment_max_bytes = 256;
  opts.compact_min_bytes = 512;
  opts.compact_dead_fraction = 0.3;
  NodeStore store(1 << 20);
  store.EnableDurability(env, "n", opts);
  // Churn a tiny working set so most records are dead and auto-compaction
  // must fire (the raw history is ~2.3 KB; the live state is 4 replicas).
  for (int round = 0; round < 30; ++round) {
    FileId id = MakeFileId(static_cast<uint8_t>(round % 4));
    if (store.HasReplica(id)) {
      store.RemoveReplica(id);
    } else {
      store.StoreReplica(id, ReplicaKind::kPrimary, 100 + static_cast<uint64_t>(round),
                         MakeCert(id));
    }
    ASSERT_TRUE(store.Commit());
  }
  ASSERT_TRUE(store.has_journal());
  const NodeStoreJournal* journal = store.journal();
  EXPECT_FALSE(journal->failed());
  EXPECT_LT(journal->total_bytes(), 1200u) << "compaction never fired";
  EXPECT_LE(journal->segment_count(), 4u);

  NodeStore recovered(1 << 20);
  ASSERT_TRUE(recovered.RecoverDurable(env, "n", opts));
  EXPECT_EQ(Signature(recovered), Signature(store));
}

// --- deployment-level: reclaim ack ordering + the rejoin audit ---

class RecoveryDeploymentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    opts_.segment_max_bytes = 16 * 1024;
    PastConfig config;
    deployment_ = BuildDeployment(24, 10'000'000, config, 1234, &env_, opts_);
  }
  PastNetwork& network() { return *deployment_.network; }
  std::vector<NodeId> Holders(const FileId& id) {
    std::vector<NodeId> out;
    for (const NodeId& n : deployment_.node_ids) {
      const PastNode* pn = network().storage_node(n);
      if (pn != nullptr && pn->store().HasReplica(id)) {
        out.push_back(n);
      }
    }
    return out;
  }

  FaultEnv env_;
  DurableOptions opts_;
  TestDeployment deployment_;
};

TEST_F(RecoveryDeploymentTest, ReclaimReceiptsRequireDurableRemoval) {
  PastClient client(network(), deployment_.node_ids[0], 1ull << 40, 5);
  ClientInsertResult inserted = client.Insert("a.bin", 2000);
  ASSERT_TRUE(inserted.stored);
  std::vector<NodeId> holders = Holders(inserted.file_id);
  ASSERT_EQ(holders.size(), 5u);

  // Every holder's disk refuses to fsync: removals apply in memory but can
  // never become durable, so no node may issue a receipt — a receipt is a
  // signed promise that the reclaim survives a crash.
  for (const NodeId& h : holders) {
    env_.FailFsyncs(h.ToHex(), true);
  }
  ReclaimResult r = client.Reclaim(inserted.file_id);
  EXPECT_EQ(r.replicas_reclaimed, 5u);
  EXPECT_TRUE(r.receipts.empty());
  EXPECT_EQ(network().CountLiveReplicas(inserted.file_id), 0u);
  for (const NodeId& h : holders) {
    env_.FailFsyncs(h.ToHex(), false);
  }
}

// The insert-side twin of the test above. Each case uses its own fixture: a
// journal stays failed after its first failed fsync.
TEST_F(RecoveryDeploymentTest, InsertFailsWhenNoStoreCanCommit) {
  for (const NodeId& n : deployment_.node_ids) {
    env_.FailFsyncs(n.ToHex(), true);
  }
  // Every primary declines on its failed commit, so every attempt rolls
  // back and the client gives up after re-salting.
  PastClient client(network(), deployment_.node_ids[0], 1ull << 40, 9);
  ClientInsertResult inserted = client.Insert("e.bin", 2000);
  EXPECT_FALSE(inserted.stored);
  EXPECT_EQ(inserted.attempts, 4);
  EXPECT_EQ(network().total_stored(), 0u);
  for (const NodeId& n : deployment_.node_ids) {
    const PastNode* pn = network().storage_node(n);
    ASSERT_NE(pn, nullptr);
    EXPECT_EQ(pn->store().replica_count(), 0u) << n.ToHex();
    EXPECT_TRUE(pn->store().pointers().empty()) << n.ToHex();
  }
}

TEST_F(RecoveryDeploymentTest, NodeThatCannotCommitHoldsNothingAndSignsNothing) {
  const NodeId bad = deployment_.node_ids[5];
  env_.FailFsyncs(bad.ToHex(), true);
  PastClient client(network(), deployment_.node_ids[0], 1ull << 40, 10);
  size_t stored = 0;
  for (int i = 0; i < 60; ++i) {
    auto cert = client.card().IssueFileCertificate("f" + std::to_string(i) + ".bin", 11, 2000,
                                                   5, Sha1::Hash("f"), static_cast<uint64_t>(i));
    ASSERT_TRUE(cert.has_value());
    InsertResult r = client.InsertCertified(*cert, 2000);
    if (r.status == InsertStatus::kStored) {
      ++stored;
    }
    // A replica, diverted replica or pointer at `bad` is undone the moment
    // its commit fails, so no receipt may ever name it.
    for (const StoreReceipt& receipt : r.receipts) {
      EXPECT_FALSE(receipt.storing_node == bad) << "insert " << i;
    }
  }
  // Some inserts landed on `bad` and were declined, the rest stored.
  EXPECT_GT(stored, 0u);
  EXPECT_LT(stored, 60u);
  const PastNode* pn = network().storage_node(bad);
  ASSERT_NE(pn, nullptr);
  EXPECT_EQ(pn->store().replica_count(), 0u);
  EXPECT_TRUE(pn->store().pointers().empty());
  InvariantReport audit = InvariantChecker().CheckDuringOps(network());
  EXPECT_TRUE(audit.ok()) << audit.Summary();
}

TEST_F(RecoveryDeploymentTest, AckedReclaimSurvivesHolderCrash) {
  PastClient client(network(), deployment_.node_ids[0], 1ull << 40, 6);
  ClientInsertResult inserted = client.Insert("b.bin", 2000);
  ASSERT_TRUE(inserted.stored);
  std::vector<NodeId> holders = Holders(inserted.file_id);
  ASSERT_EQ(holders.size(), 5u);
  ReclaimResult r = client.Reclaim(inserted.file_id);
  ASSERT_EQ(r.receipts.size(), 5u);

  // A holder loses power right after acking, with a generous torn tail — the
  // receipt was only issued after the removal committed, so not even a fully
  // flushed unsynced tail can resurrect the replica. replicas_dropped == 0
  // pins that the WAL itself never replayed it (the rejoin audit would mask
  // a resurrect by dropping it as unreferenced).
  NodeId x = holders[0];
  uint64_t cap = network().storage_node(x)->store().capacity();
  network().FailStorageNode(x);
  env_.CrashDir(x.ToHex(), 1ull << 20);
  env_.ReviveDir(x.ToHex());
  PastNetwork::RejoinOutcome outcome = network().RejoinStorageNode(x, cap);
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.replicas_recovered, 0u);
  EXPECT_EQ(outcome.replicas_dropped, 0u);
  const PastNode* pn = network().storage_node(x);
  ASSERT_NE(pn, nullptr);
  EXPECT_FALSE(pn->store().HasReplica(inserted.file_id));
}

TEST_F(RecoveryDeploymentTest, MissedReclaimCannotResurrectAFile) {
  PastClient client(network(), deployment_.node_ids[0], 1ull << 40, 7);
  ClientInsertResult inserted = client.Insert("c.bin", 2000);
  ASSERT_TRUE(inserted.stored);
  std::vector<NodeId> holders = Holders(inserted.file_id);
  ASSERT_EQ(holders.size(), 5u);

  // One holder is down when the owner reclaims; its directory honestly
  // replays the replica on rejoin, and the audit must drop it.
  NodeId x = holders[0];
  uint64_t cap = network().storage_node(x)->store().capacity();
  network().FailStorageNode(x);
  env_.CrashDir(x.ToHex(), 0);
  // Failure detection already re-replicated onto a new fifth node, so the
  // reclaim removes five live copies — but never reaches x's offline one.
  ReclaimResult r = client.Reclaim(inserted.file_id);
  EXPECT_EQ(r.replicas_reclaimed, 5u);
  EXPECT_EQ(network().CountLiveReplicas(inserted.file_id), 0u);

  env_.ReviveDir(x.ToHex());
  PastNetwork::RejoinOutcome outcome = network().RejoinStorageNode(x, cap);
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.replicas_dropped, 1u);
  EXPECT_EQ(outcome.replicas_recovered, 0u);
  EXPECT_FALSE(network().storage_node(x)->store().HasReplica(inserted.file_id));
  EXPECT_EQ(network().CountLiveReplicas(inserted.file_id), 0u);
}

TEST_F(RecoveryDeploymentTest, RecoveredReplicaReadvertisedNotDoubleCounted) {
  PastClient client(network(), deployment_.node_ids[0], 1ull << 40, 8);
  ClientInsertResult inserted = client.Insert("d.bin", 2000);
  ASSERT_TRUE(inserted.stored);
  std::vector<NodeId> holders = Holders(inserted.file_id);
  ASSERT_EQ(holders.size(), 5u);

  // A holder crashes; maintenance re-replicates onto a new fifth node.
  NodeId x = holders[0];
  uint64_t cap = network().storage_node(x)->store().capacity();
  network().FailStorageNode(x);
  env_.CrashDir(x.ToHex(), 0);
  network().MaintenanceSweep();
  EXPECT_EQ(network().CountLiveReplicas(inserted.file_id), 5u);

  // It then rejoins with its old directory: the replica is still referenced
  // by the file's current k-closest set, so the audit keeps it...
  env_.ReviveDir(x.ToHex());
  PastNetwork::RejoinOutcome outcome = network().RejoinStorageNode(x, cap);
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.replicas_recovered, 1u);
  EXPECT_EQ(outcome.replicas_dropped, 0u);
  EXPECT_TRUE(network().storage_node(x)->store().HasReplica(inserted.file_id));

  // ...and the next sweep reconciles the census back to exactly k: the
  // momentary sixth copy (at whichever holder fell out of the k closest) is
  // garbage-collected, never double-counted.
  network().MaintenanceSweep();
  EXPECT_EQ(network().CountLiveReplicas(inserted.file_id), 5u);
}

}  // namespace
}  // namespace past
