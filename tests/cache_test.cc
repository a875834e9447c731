// Cache tests: GreedyDual-Size semantics, LRU semantics, and the FileCache
// container's budget handling (paper section 4).
#include <gtest/gtest.h>

#include <bit>
#include <list>
#include <set>
#include <unordered_map>

#include "src/cache/file_cache.h"
#include "src/cache/gds_policy.h"
#include "src/cache/lru_policy.h"
#include "src/common/distributions.h"
#include "src/common/rng.h"

namespace past {
namespace {

FileId MakeFileId(uint32_t tag) {
  std::array<uint8_t, 20> bytes{};
  bytes[0] = static_cast<uint8_t>(tag >> 24);
  bytes[1] = static_cast<uint8_t>(tag >> 16);
  bytes[2] = static_cast<uint8_t>(tag >> 8);
  bytes[3] = static_cast<uint8_t>(tag);
  return FileId(bytes);
}

TEST(GdsPolicyTest, EvictsLargestFirstWhenUnreferenced) {
  // With c(d)=1, H = L + 1/size: big files have the smallest H.
  GdsPolicy gds;
  gds.OnInsert(MakeFileId(1), 100);
  gds.OnInsert(MakeFileId(2), 10000);
  gds.OnInsert(MakeFileId(3), 10);
  auto victim = gds.EvictVictim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, MakeFileId(2));
}

TEST(GdsPolicyTest, HitProtectsEntry) {
  GdsPolicy gds;
  gds.OnInsert(MakeFileId(1), 1000);
  gds.OnInsert(MakeFileId(2), 1000);
  // Age the cache: evicting raises L.
  gds.OnInsert(MakeFileId(3), 500000);
  ASSERT_EQ(*gds.EvictVictim(), MakeFileId(3));
  EXPECT_GT(gds.inflation(), 0.0);
  // A hit on 1 re-inflates its weight above 2's.
  gds.OnHit(MakeFileId(1), 1000);
  EXPECT_EQ(*gds.EvictVictim(), MakeFileId(2));
}

TEST(GdsPolicyTest, InflationRisesMonotonically) {
  GdsPolicy gds;
  for (uint32_t i = 0; i < 10; ++i) {
    gds.OnInsert(MakeFileId(i), 100 * (i + 1));
  }
  double last = gds.inflation();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(gds.EvictVictim().has_value());
    EXPECT_GE(gds.inflation(), last);
    last = gds.inflation();
  }
  EXPECT_FALSE(gds.EvictVictim().has_value());
}

TEST(GdsPolicyTest, RemoveDropsEntry) {
  GdsPolicy gds;
  gds.OnInsert(MakeFileId(1), 100);
  gds.OnRemove(MakeFileId(1));
  EXPECT_FALSE(gds.EvictVictim().has_value());
  gds.OnRemove(MakeFileId(99));  // unknown id: no-op
}

TEST(LruPolicyTest, EvictsLeastRecentlyUsed) {
  LruPolicy lru;
  lru.OnInsert(MakeFileId(1), 1);
  lru.OnInsert(MakeFileId(2), 1);
  lru.OnInsert(MakeFileId(3), 1);
  lru.OnHit(MakeFileId(1), 1);  // 2 is now the oldest
  EXPECT_EQ(*lru.EvictVictim(), MakeFileId(2));
  EXPECT_EQ(*lru.EvictVictim(), MakeFileId(3));
  EXPECT_EQ(*lru.EvictVictim(), MakeFileId(1));
  EXPECT_FALSE(lru.EvictVictim().has_value());
}

TEST(LruPolicyTest, RemoveDropsEntry) {
  LruPolicy lru;
  lru.OnInsert(MakeFileId(1), 1);
  lru.OnInsert(MakeFileId(2), 1);
  lru.OnRemove(MakeFileId(1));
  EXPECT_EQ(*lru.EvictVictim(), MakeFileId(2));
  EXPECT_FALSE(lru.EvictVictim().has_value());
}

TEST(FileCacheTest, InsertWithinBudget) {
  FileCache cache(std::make_unique<LruPolicy>(), 1.0);
  EXPECT_TRUE(cache.Insert(MakeFileId(1), 100, 1000));
  EXPECT_EQ(cache.used(), 100u);
  EXPECT_TRUE(cache.Lookup(MakeFileId(1)));
  EXPECT_FALSE(cache.Lookup(MakeFileId(2)));
}

TEST(FileCacheTest, AdmissionFractionRespected) {
  // c = 0.1: a file must be smaller than 10% of the budget.
  FileCache cache(std::make_unique<LruPolicy>(), 0.1);
  EXPECT_FALSE(cache.Insert(MakeFileId(1), 200, 1000));
  EXPECT_TRUE(cache.Insert(MakeFileId(2), 50, 1000));
}

TEST(FileCacheTest, FileAsLargeAsBudgetRejected) {
  FileCache cache(std::make_unique<LruPolicy>(), 1.0);
  // size >= c * budget is rejected (strict inequality in the paper).
  EXPECT_FALSE(cache.Insert(MakeFileId(1), 1000, 1000));
  EXPECT_TRUE(cache.Insert(MakeFileId(2), 999, 1000));
}

TEST(FileCacheTest, EvictsToMakeRoom) {
  FileCache cache(std::make_unique<LruPolicy>(), 1.0);
  EXPECT_TRUE(cache.Insert(MakeFileId(1), 400, 1000));
  EXPECT_TRUE(cache.Insert(MakeFileId(2), 400, 1000));
  EXPECT_TRUE(cache.Insert(MakeFileId(3), 400, 1000));  // evicts 1
  EXPECT_LE(cache.used(), 1000u);
  EXPECT_FALSE(cache.Lookup(MakeFileId(1), /*touch=*/false));
  EXPECT_TRUE(cache.Lookup(MakeFileId(2), /*touch=*/false));
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(FileCacheTest, ShrinkToBudgetEvicts) {
  FileCache cache(std::make_unique<LruPolicy>(), 1.0);
  cache.Insert(MakeFileId(1), 300, 1000);
  cache.Insert(MakeFileId(2), 300, 1000);
  cache.Insert(MakeFileId(3), 300, 1000);
  cache.ShrinkToBudget(500);
  EXPECT_LE(cache.used(), 500u);
  EXPECT_EQ(cache.count(), 1u);
}

TEST(FileCacheTest, RemoveSpecificFile) {
  FileCache cache(std::make_unique<GdsPolicy>(), 1.0);
  cache.Insert(MakeFileId(1), 100, 1000);
  EXPECT_TRUE(cache.Remove(MakeFileId(1)));
  EXPECT_FALSE(cache.Remove(MakeFileId(1)));
  EXPECT_EQ(cache.used(), 0u);
}

TEST(FileCacheTest, SizeOfReportsWithoutTouching) {
  FileCache cache(std::make_unique<LruPolicy>(), 1.0);
  cache.Insert(MakeFileId(1), 123, 1000);
  auto size = cache.SizeOf(MakeFileId(1));
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(*size, 123u);
  EXPECT_FALSE(cache.SizeOf(MakeFileId(2)).has_value());
}

TEST(FileCacheTest, DuplicateInsertRejected) {
  FileCache cache(std::make_unique<LruPolicy>(), 1.0);
  EXPECT_TRUE(cache.Insert(MakeFileId(1), 100, 1000));
  EXPECT_FALSE(cache.Insert(MakeFileId(1), 100, 1000));
  EXPECT_EQ(cache.used(), 100u);
}

TEST(FileCacheTest, ZeroByteFilesNotCached) {
  FileCache cache(std::make_unique<LruPolicy>(), 1.0);
  EXPECT_FALSE(cache.Insert(MakeFileId(1), 0, 1000));
}

TEST(FileCacheTest, ZeroByteRejectionLeavesAccountingUntouched) {
  FileCache cache(std::make_unique<GdsPolicy>(), 1.0);
  ASSERT_TRUE(cache.Insert(MakeFileId(1), 400, 1000));
  EXPECT_FALSE(cache.Insert(MakeFileId(2), 0, 1000));
  EXPECT_EQ(cache.used(), 400u);
  EXPECT_EQ(cache.count(), 1u);
  EXPECT_EQ(cache.Entries().size(), 1u);
  // The rejected file never entered the policy either: evicting drains only
  // the real entry.
  cache.ShrinkToBudget(0);
  EXPECT_EQ(cache.used(), 0u);
  EXPECT_EQ(cache.count(), 0u);
}

TEST(GdsPolicyTest, ZeroSizeEntryIsSafeAndEvictedLast) {
  // H = L + 1/max(1, size): a zero-size entry must not divide by zero, and
  // it gets the largest weight so larger files are evicted first.
  GdsPolicy gds;
  gds.OnInsert(MakeFileId(1), 0);
  gds.OnInsert(MakeFileId(2), 1000);
  auto victim = gds.EvictVictim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, MakeFileId(2));
  auto last = gds.EvictVictim();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(*last, MakeFileId(1));
}

TEST(FileCacheTest, ExactCapacityFitNeedsNoEviction) {
  FileCache cache(std::make_unique<GdsPolicy>(), 1.0);
  ASSERT_TRUE(cache.Insert(MakeFileId(1), 400, 1000));
  // 400 + 600 lands exactly on the budget: admitted with zero evictions.
  ASSERT_TRUE(cache.Insert(MakeFileId(2), 600, 1000));
  EXPECT_EQ(cache.used(), 1000u);
  EXPECT_EQ(cache.count(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(FileCacheTest, EvictionStopsAtExactFit) {
  FileCache cache(std::make_unique<GdsPolicy>(), 1.0);
  ASSERT_TRUE(cache.Insert(MakeFileId(1), 500, 1000));
  ASSERT_TRUE(cache.Insert(MakeFileId(2), 400, 1000));
  // Admitting 600 must evict entry 1 (largest ⇒ smallest GD-S weight) and
  // then stop: 400 + 600 fits the budget exactly.
  ASSERT_TRUE(cache.Insert(MakeFileId(3), 600, 1000));
  EXPECT_EQ(cache.used(), 1000u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.SizeOf(MakeFileId(1)).has_value());
  EXPECT_TRUE(cache.SizeOf(MakeFileId(2)).has_value());
  EXPECT_TRUE(cache.SizeOf(MakeFileId(3)).has_value());
}

TEST(FileCacheTest, EntriesSnapshotMatchesAccounting) {
  FileCache cache(std::make_unique<GdsPolicy>(), 1.0);
  ASSERT_TRUE(cache.Insert(MakeFileId(1), 300, 10'000));
  ASSERT_TRUE(cache.Insert(MakeFileId(2), 700, 10'000));
  ASSERT_TRUE(cache.Insert(MakeFileId(3), 1'000, 10'000));
  uint64_t sum = 0;
  for (const auto& [id, size] : cache.Entries()) {
    (void)id;
    sum += size;
  }
  EXPECT_EQ(sum, cache.used());
  EXPECT_EQ(cache.Entries().size(), cache.count());
  // Removal keeps the snapshot in lockstep.
  ASSERT_TRUE(cache.Remove(MakeFileId(2)));
  EXPECT_EQ(cache.Entries().size(), 2u);
  sum = 0;
  for (const auto& [id, size] : cache.Entries()) {
    (void)id;
    sum += size;
  }
  EXPECT_EQ(sum, cache.used());
}

TEST(FileCacheTest, PolicyTracksEveryCachedFile) {
  for (bool gds : {true, false}) {
    std::unique_ptr<EvictionPolicy> policy;
    if (gds) {
      policy = std::make_unique<GdsPolicy>();
    } else {
      policy = std::make_unique<LruPolicy>();
    }
    FileCache cache(std::move(policy), 1.0);
    Rng rng(7);
    for (uint32_t i = 0; i < 2000; ++i) {
      uint32_t f = static_cast<uint32_t>(rng.NextBelow(300));
      if (!cache.Lookup(MakeFileId(f))) {
        cache.Insert(MakeFileId(f), 1 + rng.NextBelow(400), 5000);
      }
      if (i % 7 == 0) {
        cache.Remove(MakeFileId(static_cast<uint32_t>(rng.NextBelow(300))));
      }
      if (i % 97 == 0) {
        cache.ShrinkToBudget(rng.NextBelow(5000));
      }
      ASSERT_EQ(cache.policy().size(), cache.count()) << cache.policy().name() << " op " << i;
    }
    EXPECT_GT(cache.evictions(), 0u);
  }
}

// Reference models: GD-S on a std::set of (H, id) beside a hash map of
// weights, and LRU on a std::list with a hash index of list positions. The
// differential tests below require the policies to pick the same victim, and
// GD-S the bit-identical inflation value, after every operation of a random
// stream.
class ReferenceGds {
 public:
  void OnInsert(const FileId& id, uint64_t size) { Enqueue(id, size); }
  void OnHit(const FileId& id, uint64_t size) { Enqueue(id, size); }
  void OnRemove(const FileId& id) {
    auto it = weight_.find(id);
    if (it != weight_.end()) {
      queue_.erase({it->second, id});
      weight_.erase(it);
    }
  }
  std::optional<FileId> EvictVictim() {
    if (queue_.empty()) {
      return std::nullopt;
    }
    auto it = queue_.begin();
    FileId victim = it->second;
    inflation_ = it->first;
    queue_.erase(it);
    weight_.erase(victim);
    return victim;
  }
  size_t size() const { return weight_.size(); }
  double inflation() const { return inflation_; }

 private:
  void Enqueue(const FileId& id, uint64_t size) {
    double h = inflation_ + 1.0 / std::max<double>(1.0, static_cast<double>(size));
    auto it = weight_.find(id);
    if (it != weight_.end()) {
      queue_.erase({it->second, id});
      it->second = h;
    } else {
      weight_[id] = h;
    }
    queue_.insert({h, id});
  }

  double inflation_ = 0.0;
  std::unordered_map<FileId, double, FileIdHash> weight_;
  std::set<std::pair<double, FileId>> queue_;
};

class ReferenceLru {
 public:
  void OnInsert(const FileId& id, uint64_t) { Touch(id); }
  void OnHit(const FileId& id, uint64_t) { Touch(id); }
  void OnRemove(const FileId& id) {
    auto it = index_.find(id);
    if (it != index_.end()) {
      order_.erase(it->second);
      index_.erase(it);
    }
  }
  std::optional<FileId> EvictVictim() {
    if (order_.empty()) {
      return std::nullopt;
    }
    FileId victim = order_.back();
    order_.pop_back();
    index_.erase(victim);
    return victim;
  }
  size_t size() const { return index_.size(); }

 private:
  void Touch(const FileId& id) {
    auto it = index_.find(id);
    if (it != index_.end()) {
      order_.erase(it->second);
    }
    order_.push_front(id);
    index_[id] = order_.begin();
  }

  std::list<FileId> order_;
  std::unordered_map<FileId, std::list<FileId>::iterator, FileIdHash> index_;
};

// Drives `policy` and `reference` with the same 20k random ops per seed:
// inserts (of new and already tracked files), hits, removes of tracked and
// unknown files, and evictions. Sizes come from a short list with repeats and
// 0, so equal weights (ties broken by fileId) are common. `after_step` runs
// extra per-step checks.
template <typename Policy, typename Reference, typename Check>
void RunDifferential(Check after_step) {
  const uint64_t kSizes[] = {0, 1, 2, 7, 7, 100, 100, 1000, 4096, 4096};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Policy policy;
    Reference reference;
    Rng rng(seed);
    std::vector<std::pair<FileId, uint64_t>> tracked;  // mirrors the reference
    auto forget = [&tracked](const FileId& id) {
      for (size_t i = 0; i < tracked.size(); ++i) {
        if (tracked[i].first == id) {
          tracked[i] = tracked.back();
          tracked.pop_back();
          return;
        }
      }
    };
    for (int step = 0; step < 20000; ++step) {
      uint64_t op = rng.NextBelow(10);
      if (op < 4) {
        FileId id = MakeFileId(static_cast<uint32_t>(rng.NextBelow(200)));
        uint64_t size = kSizes[rng.NextBelow(std::size(kSizes))];
        forget(id);
        tracked.emplace_back(id, size);
        policy.OnInsert(id, size);
        reference.OnInsert(id, size);
      } else if (op < 7 && !tracked.empty()) {
        const auto& [id, size] = tracked[rng.NextBelow(tracked.size())];
        policy.OnHit(id, size);
        reference.OnHit(id, size);
      } else if (op < 8) {
        FileId id = rng.NextBool(0.5) && !tracked.empty()
                        ? tracked[rng.NextBelow(tracked.size())].first
                        : MakeFileId(static_cast<uint32_t>(rng.NextBelow(400)));
        forget(id);
        policy.OnRemove(id);
        reference.OnRemove(id);
      } else {
        std::optional<FileId> got = policy.EvictVictim();
        std::optional<FileId> want = reference.EvictVictim();
        ASSERT_EQ(got, want) << "step " << step;
        if (want) {
          forget(*want);
        }
      }
      ASSERT_EQ(policy.size(), reference.size()) << "step " << step;
      after_step(policy, reference, step);
    }
    // Drain: the remaining eviction order matches too.
    while (auto want = reference.EvictVictim()) {
      ASSERT_EQ(policy.EvictVictim(), want);
    }
    EXPECT_FALSE(policy.EvictVictim().has_value());
  }
}

TEST(GdsPolicyTest, MatchesReferenceModelOnRandomOps) {
  RunDifferential<GdsPolicy, ReferenceGds>(
      [](const GdsPolicy& policy, const ReferenceGds& reference, int step) {
        ASSERT_EQ(std::bit_cast<uint64_t>(policy.inflation()),
                  std::bit_cast<uint64_t>(reference.inflation()))
            << "step " << step;
      });
}

TEST(LruPolicyTest, MatchesReferenceModelOnRandomOps) {
  RunDifferential<LruPolicy, ReferenceLru>([](const LruPolicy&, const ReferenceLru&, int) {});
}

// Comparative property: on a Zipf-like trace with varied sizes, GD-S should
// achieve at least as high a hit rate as LRU (the paper's Figure 8 finding).
TEST(CachePolicyComparisonTest, GdsBeatsLruOnSkewedTrace) {
  auto run = [](std::unique_ptr<EvictionPolicy> policy) {
    FileCache cache(std::move(policy), 1.0);
    const uint64_t budget = 50000;
    Rng rng(77);
    Zipf zipf(500, 0.9);
    std::vector<uint64_t> sizes(500);
    FileSizeDistribution dist(1312, 10517, 0.0, 1.1, 1000000);
    for (auto& s : sizes) {
      s = std::max<uint64_t>(1, dist.Sample(rng));
    }
    uint64_t hits = 0, refs = 0;
    for (int i = 0; i < 30000; ++i) {
      uint32_t f = static_cast<uint32_t>(zipf.Sample(rng));
      ++refs;
      if (cache.Lookup(MakeFileId(f))) {
        ++hits;
      } else {
        cache.Insert(MakeFileId(f), sizes[f], budget);
      }
    }
    return static_cast<double>(hits) / static_cast<double>(refs);
  };
  double gds_rate = run(std::make_unique<GdsPolicy>());
  double lru_rate = run(std::make_unique<LruPolicy>());
  EXPECT_GT(gds_rate, 0.1);
  EXPECT_GE(gds_rate, lru_rate - 0.02);
}

}  // namespace
}  // namespace past
