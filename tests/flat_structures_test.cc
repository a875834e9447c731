// Cross-checks for the flattened hot structures against their pointer-based
// reference counterparts: FlatTable vs std::unordered_map, SortedRing vs a
// std::map two-cursor walk. (PastryNetwork's seed grid is checked against a
// linear scan in topology_test.cc.) Each check runs a randomized op sequence
// over a seed bank so the structures agree on every intermediate state, not
// just the final one.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/flat_table.h"
#include "src/common/node_id.h"
#include "src/common/rng.h"
#include "src/pastry/ring.h"

namespace past {
namespace {

NodeId Id(uint64_t hi, uint64_t lo) { return NodeId(hi, lo); }

struct U64Hash {
  size_t operator()(uint64_t v) const {
    v ^= v >> 33;
    v *= 0xff51afd7ed558ccdULL;
    v ^= v >> 33;
    return static_cast<size_t>(v);
  }
};

// --- FlatTable vs std::unordered_map ---

TEST(FlatTableTest, MatchesUnorderedMapAcrossSeedBank) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    FlatTable<uint64_t, int, U64Hash> table;
    std::unordered_map<uint64_t, int> reference;
    // A small key universe forces collisions, overwrites, and erase/re-insert
    // cycles through tombstoned slots.
    const uint64_t universe = 64 + rng.NextBelow(192);
    for (int step = 0; step < 4000; ++step) {
      uint64_t key = rng.NextBelow(universe) * 0x9e3779b97f4a7c15ULL;
      switch (rng.NextBelow(4)) {
        case 0: {
          int value = static_cast<int>(rng.NextBelow(1000));
          auto [slot, inserted] = table.TryEmplace(key, value);
          auto [it, ref_inserted] = reference.try_emplace(key, value);
          ASSERT_EQ(inserted, ref_inserted);
          ASSERT_EQ(*slot, it->second);
          break;
        }
        case 1: {
          int value = static_cast<int>(rng.NextBelow(1000));
          table.InsertOrAssign(key, value);
          reference[key] = value;
          break;
        }
        case 2:
          ASSERT_EQ(table.Erase(key), reference.erase(key) > 0);
          break;
        default: {
          const int* found = table.Find(key);
          auto it = reference.find(key);
          ASSERT_EQ(found != nullptr, it != reference.end());
          if (found != nullptr) {
            ASSERT_EQ(*found, it->second);
          }
          ASSERT_EQ(table.Contains(key), it != reference.end());
          break;
        }
      }
      ASSERT_EQ(table.size(), reference.size());
    }
    // Full-contents equality via iteration.
    std::vector<std::pair<uint64_t, int>> got;
    for (const auto& [key, value] : table) {
      got.emplace_back(key, value);
    }
    std::vector<std::pair<uint64_t, int>> want(reference.begin(), reference.end());
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(FlatTableTest, MoveOnlyValuesSurviveRehash) {
  // nodes_ in PastNetwork stores unique_ptr values; growth must rehash by
  // moving slots, never copying.
  FlatTable<uint64_t, std::unique_ptr<int>, U64Hash> table;
  for (uint64_t i = 0; i < 300; ++i) {
    table.InsertOrAssign(i, std::make_unique<int>(static_cast<int>(i * 7)));
  }
  for (uint64_t i = 0; i < 300; i += 3) {
    EXPECT_TRUE(table.Erase(i));
  }
  for (uint64_t i = 300; i < 600; ++i) {
    table.TryEmplace(i, std::make_unique<int>(static_cast<int>(i * 7)));
  }
  ASSERT_EQ(table.size(), 500u);
  for (uint64_t i = 0; i < 600; ++i) {
    std::unique_ptr<int>* slot = table.Find(i);
    if (i < 300 && i % 3 == 0) {
      EXPECT_EQ(slot, nullptr) << i;
    } else {
      ASSERT_NE(slot, nullptr) << i;
      EXPECT_EQ(**slot, static_cast<int>(i * 7));
    }
  }
}

TEST(FlatTableTest, ReserveAvoidsGrowthRehash) {
  FlatTable<uint64_t, int, U64Hash> table;
  table.Reserve(1000);
  for (uint64_t i = 0; i < 1000; ++i) {
    table.TryEmplace(i, static_cast<int>(i));
  }
  EXPECT_EQ(table.size(), 1000u);
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_NE(table.Find(i), nullptr);
  }
}

TEST(FlatTableTest, GrowthAtExactCapacityBoundary) {
  // The table rehashes when (size + tombstones + 1) * 3 >= capacity * 2.
  // Walk insertion counts across every boundary up to a few doublings and
  // check the contents survive each growth intact, including an insert that
  // lands exactly on the trigger.
  for (size_t target : {9u, 10u, 11u, 20u, 21u, 22u, 41u, 42u, 43u, 84u, 86u, 170u, 171u}) {
    FlatTable<uint64_t, uint64_t, U64Hash> table;
    for (uint64_t i = 0; i < target; ++i) {
      auto [slot, inserted] = table.TryEmplace(i * 0x9e3779b97f4a7c15ULL, i);
      ASSERT_TRUE(inserted);
      ASSERT_EQ(*slot, i);
    }
    ASSERT_EQ(table.size(), target);
    for (uint64_t i = 0; i < target; ++i) {
      const uint64_t* v = table.Find(i * 0x9e3779b97f4a7c15ULL);
      ASSERT_NE(v, nullptr) << "target " << target << " key " << i;
      EXPECT_EQ(*v, i);
    }
  }
}

TEST(FlatTableTest, TombstoneReuseUnderChurn) {
  // Heavy erase/insert cycles over a fixed key universe: the table must
  // recycle tombstoned slots (via rehash) instead of growing without bound,
  // and every intermediate state must stay consistent.
  FlatTable<uint64_t, int, U64Hash> table;
  std::unordered_map<uint64_t, int> reference;
  Rng rng(77);
  const uint64_t universe = 48;
  for (int round = 0; round < 200; ++round) {
    for (uint64_t k = 0; k < universe; ++k) {
      uint64_t key = k * 0x9e3779b97f4a7c15ULL;
      if (rng.NextBool(0.5)) {
        int value = round * 1000 + static_cast<int>(k);
        table.InsertOrAssign(key, value);
        reference[key] = value;
      } else {
        ASSERT_EQ(table.Erase(key), reference.erase(key) > 0);
      }
    }
    ASSERT_EQ(table.size(), reference.size());
  }
  size_t live_seen = 0;
  for (const auto& [key, value] : table) {
    auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    ASSERT_EQ(value, it->second);
    ++live_seen;
  }
  EXPECT_EQ(live_seen, reference.size());
}

TEST(FlatTableTest, IterationOrderStableUnderInterning) {
  // The interning pattern (TryEmplace of id -> dense index, never erase)
  // must yield the same iteration order on two tables fed the same key
  // sequence — the determinism contract the scale engine's fingerprints
  // rest on — and the order must be reproduced after an explicit Reserve
  // to the same final capacity.
  Rng rng(91);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 500; ++i) {
    keys.push_back(rng.NextU64());
  }
  FlatTable<uint64_t, uint32_t, U64Hash> a;
  FlatTable<uint64_t, uint32_t, U64Hash> b;
  for (size_t i = 0; i < keys.size(); ++i) {
    a.TryEmplace(keys[i], static_cast<uint32_t>(i));
    b.TryEmplace(keys[i], static_cast<uint32_t>(i));
  }
  std::vector<std::pair<uint64_t, uint32_t>> order_a;
  std::vector<std::pair<uint64_t, uint32_t>> order_b;
  for (const auto& [k, v] : a) {
    order_a.emplace_back(k, v);
  }
  for (const auto& [k, v] : b) {
    order_b.emplace_back(k, v);
  }
  EXPECT_EQ(order_a, order_b);
  // Same keys through a pre-sized table: final capacity matches (both end at
  // NormalizeCapacity), so slot order must match too.
  FlatTable<uint64_t, uint32_t, U64Hash> c;
  c.Reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    c.TryEmplace(keys[i], static_cast<uint32_t>(i));
  }
  std::vector<std::pair<uint64_t, uint32_t>> order_c;
  for (const auto& [k, v] : c) {
    order_c.emplace_back(k, v);
  }
  EXPECT_EQ(order_a, order_c);
}

TEST(FlatTableTest, ArenaBackedMatchesHeapBacked) {
  // A table carved from an Arena must behave identically to the heap-backed
  // default: same contents, same iteration order, through growth, churn,
  // Clear, and re-fill (which exercises the arena free lists).
  Arena arena(1 << 16);
  FlatTable<uint64_t, int, U64Hash> pooled(&arena);
  FlatTable<uint64_t, int, U64Hash> heap;
  Rng rng(123);
  for (int step = 0; step < 6000; ++step) {
    uint64_t key = rng.NextBelow(256) * 0x9e3779b97f4a7c15ULL;
    switch (rng.NextBelow(4)) {
      case 0:
      case 1: {
        int value = static_cast<int>(rng.NextBelow(100000));
        pooled.InsertOrAssign(key, value);
        heap.InsertOrAssign(key, value);
        break;
      }
      case 2:
        ASSERT_EQ(pooled.Erase(key), heap.Erase(key));
        break;
      default:
        if (step == 3000) {
          pooled.Clear();
          heap.Clear();
        }
        break;
    }
  }
  ASSERT_EQ(pooled.size(), heap.size());
  std::vector<std::pair<uint64_t, int>> got_pooled;
  std::vector<std::pair<uint64_t, int>> got_heap;
  for (const auto& [k, v] : pooled) {
    got_pooled.emplace_back(k, v);
  }
  for (const auto& [k, v] : heap) {
    got_heap.emplace_back(k, v);
  }
  EXPECT_EQ(got_pooled, got_heap);
  EXPECT_GT(arena.bytes_reserved(), 0u);
}

TEST(ArenaTest, RecyclesFreedBlocksBySizeClass) {
  Arena arena(1 << 14);
  void* a = arena.Allocate(100);  // 112-byte class
  void* b = arena.Allocate(100);
  EXPECT_NE(a, b);
  arena.Deallocate(a, 100);
  void* c = arena.Allocate(97);  // same 112-byte class -> reuses a
  EXPECT_EQ(c, a);
  void* d = arena.Allocate(3000);  // pow2 class
  arena.Deallocate(d, 3000);
  EXPECT_EQ(arena.Allocate(2500), d);  // 4096-byte class shared
  // Larger than half a slab: direct allocation, still usable and freed.
  void* big = arena.Allocate(1 << 15);
  EXPECT_NE(big, nullptr);
  arena.Deallocate(big, 1 << 15);
  (void)b;
}

TEST(ArenaTest, AllocationsAreAligned) {
  Arena arena;
  for (size_t bytes : {1u, 7u, 16u, 24u, 100u, 1000u, 5000u}) {
    void* p = arena.Allocate(bytes);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % Arena::kAlignment, 0u) << bytes;
  }
}

// --- SortedRing vs a std::map-based reference ---

// The pre-flattening oracle: a std::map keyed by id value, k-closest via a
// two-cursor walk outward from the lower bound.
class MapRingReference {
 public:
  bool Insert(const NodeId& id) { return ids_.emplace(id.value(), id).second; }
  bool Erase(const NodeId& id) { return ids_.erase(id.value()) > 0; }
  bool Contains(const NodeId& id) const { return ids_.count(id.value()) > 0; }
  size_t size() const { return ids_.size(); }

  std::vector<NodeId> KClosest(const NodeId& key, size_t k) const {
    std::vector<NodeId> all;
    all.reserve(ids_.size());
    for (const auto& [value, id] : ids_) {
      all.push_back(id);
    }
    std::sort(all.begin(), all.end(),
              [&key](const NodeId& a, const NodeId& b) { return a.CloserTo(key, b); });
    if (all.size() > k) {
      all.resize(k);
    }
    return all;
  }

 private:
  std::map<uint128, NodeId> ids_;
};

TEST(SortedRingTest, MatchesMapReferenceAcrossSeedBank) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    SortedRing ring;
    MapRingReference reference;
    for (int step = 0; step < 2500; ++step) {
      NodeId id(rng.NextBelow(8), rng.NextBelow(512));
      switch (rng.NextBelow(4)) {
        case 0:
        case 1:
          ASSERT_EQ(ring.Insert(id), reference.Insert(id));
          break;
        case 2:
          ASSERT_EQ(ring.Erase(id), reference.Erase(id));
          break;
        default:
          ASSERT_EQ(ring.Contains(id), reference.Contains(id));
          break;
      }
      ASSERT_EQ(ring.size(), reference.size());
      if (step % 50 == 0 && !ring.empty()) {
        NodeId key(rng.NextBelow(8), rng.NextBelow(512));
        for (size_t k : {size_t{1}, size_t{5}, size_t{32}}) {
          ASSERT_EQ(ring.KClosest(key, k), reference.KClosest(key, k))
              << "seed " << seed << " step " << step << " k " << k;
        }
      }
    }
    // The array is sorted and IndexOf/LowerBound agree with std::lower_bound.
    const std::vector<NodeId>& ids = ring.ids();
    ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(ring.IndexOf(ids[i]), i);
      ASSERT_EQ(ring.LowerBound(ids[i].value()), i);
    }
  }
}

TEST(SortedRingTest, LowerBoundEdgeCases) {
  SortedRing ring;
  EXPECT_EQ(ring.LowerBound(uint128(0)), 0u);
  ring.Insert(Id(0, 100));
  ring.Insert(Id(0, 200));
  ring.Insert(Id(0, 300));
  EXPECT_EQ(ring.LowerBound(uint128(50)), 0u);
  EXPECT_EQ(ring.LowerBound(uint128(100)), 0u);
  EXPECT_EQ(ring.LowerBound(uint128(101)), 1u);
  EXPECT_EQ(ring.LowerBound(uint128(300)), 2u);
  EXPECT_EQ(ring.LowerBound(uint128(301)), 3u);  // size(): callers wrap to 0
}

TEST(SortedRingTest, ClosestMatchesKClosestOne) {
  SortedRing ring;
  EXPECT_EQ(ring.Closest(Id(0, 5)), NodeId());
  // Exact ties, including across the wrap point, go to the smaller id.
  ring.Insert(Id(0, 100));
  EXPECT_EQ(ring.Closest(Id(0, 7)), Id(0, 100));
  ring.Insert(Id(0, 300));
  ring.Insert(Id(~uint64_t{0}, ~uint64_t{0} - 99));  // 100 below the wrap
  EXPECT_EQ(ring.Closest(Id(0, 200)), Id(0, 100));
  EXPECT_EQ(ring.Closest(Id(0, 0)), Id(0, 100));
  for (uint64_t key_low : {0ull, 99ull, 100ull, 200ull, 250ull, 301ull, 1ull << 40}) {
    EXPECT_EQ(ring.Closest(Id(0, key_low)), ring.KClosest(Id(0, key_low), 1).front());
  }
  // Random rings (dense in a small id space, so ties and neighbors at equal
  // distance are common) against the KClosest oracle, bulk inserts pending.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    SortedRing random_ring;
    random_ring.BeginBulkLoad();
    for (int i = 0; i < 64; ++i) {
      NodeId id(rng.NextBelow(2) * ~uint64_t{0}, rng.NextBelow(1024));
      if (!random_ring.Contains(id)) {
        random_ring.Insert(id);
      }
      NodeId key(rng.NextBelow(2) * ~uint64_t{0}, rng.NextBelow(1024));
      ASSERT_EQ(random_ring.Closest(key), random_ring.KClosest(key, 1).front())
          << "seed " << seed << " step " << i;
    }
    random_ring.EndBulkLoad();
  }
}

}  // namespace
}  // namespace past
