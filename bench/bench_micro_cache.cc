// Microbenchmarks for cache policies: GD-S vs LRU operation cost and hit
// rates on a Zipf stream, for one warm cache and for many cold per-node
// caches.
#include <benchmark/benchmark.h>

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

template <typename Policy>
void RunCacheStream(benchmark::State& state) {
  FileCache cache(std::make_unique<Policy>(), 1.0);
  Rng rng(50);
  Zipf zipf(10000, 0.8);
  FileSizeDistribution sizes(1312, 10517, 0.0, 1.1, 500000);
  std::vector<uint64_t> catalog(10000);
  for (auto& s : catalog) {
    s = std::max<uint64_t>(1, sizes.Sample(rng));
  }
  const uint64_t budget = 2'000'000;
  for (auto _ : state) {
    uint32_t f = static_cast<uint32_t>(zipf.Sample(rng));
    if (!cache.Lookup(MakeFileId(f))) {
      cache.Insert(MakeFileId(f), catalog[f], budget);
    }
  }
  state.counters["hit_rate"] = benchmark::Counter(
      static_cast<double>(cache.hits()) / static_cast<double>(cache.hits() + cache.misses()));
}

void BM_GdsCacheStream(benchmark::State& state) { RunCacheStream<GdsPolicy>(state); }
BENCHMARK(BM_GdsCacheStream);

void BM_LruCacheStream(benchmark::State& state) { RunCacheStream<LruPolicy>(state); }
BENCHMARK(BM_LruCacheStream);

void BM_GdsEvictionChurn(benchmark::State& state) {
  FileCache cache(std::make_unique<GdsPolicy>(), 1.0);
  uint32_t next = 0;
  for (auto _ : state) {
    // Every insert evicts (budget holds ~10 files).
    cache.Insert(MakeFileId(next++), 1000, 10000);
  }
}
BENCHMARK(BM_GdsEvictionChurn);

// The per-node shape of a large overlay under a lookup stream: 2,048 caches
// of ~350 entries each, driven round-robin by one Zipf stream, so every op
// lands on a cache whose heap and index are cold. Caches are filled before
// timing starts; the timed ops mix hits, misses and evictions. The byte
// budget is the benchmark argument: GD-S keeps small files, so it reaches
// ~350 entries at a far smaller budget than LRU does.
template <typename Policy>
void RunManyCaches(benchmark::State& state) {
  constexpr size_t kCaches = 2048;
  constexpr uint32_t kCatalog = 200000;
  const uint64_t budget = static_cast<uint64_t>(state.range(0));
  std::vector<FileCache> caches;
  caches.reserve(kCaches);
  for (size_t i = 0; i < kCaches; ++i) {
    caches.emplace_back(std::make_unique<Policy>(), 1.0);
  }
  Rng rng(51);
  Zipf zipf(kCatalog, 0.8);
  FileSizeDistribution sizes(1312, 10517, 0.0, 1.1, 500000);
  std::vector<uint64_t> catalog(kCatalog);
  for (auto& s : catalog) {
    s = std::max<uint64_t>(1, sizes.Sample(rng));
  }
  size_t next = 0;
  auto step = [&] {
    FileCache& cache = caches[next];
    next = (next + 1) % kCaches;
    uint32_t f = static_cast<uint32_t>(zipf.Sample(rng));
    if (!cache.Lookup(MakeFileId(f))) {
      cache.Insert(MakeFileId(f), catalog[f], budget);
    }
  };
  for (size_t i = 0; i < kCaches * 1000; ++i) {
    step();
  }
  uint64_t hits = 0;
  uint64_t lookups = 0;
  uint64_t evictions = 0;
  for (const FileCache& cache : caches) {
    hits -= cache.hits();
    lookups -= cache.hits() + cache.misses();
    evictions -= cache.evictions();
  }
  for (auto _ : state) {
    step();
  }
  size_t entries = 0;
  for (const FileCache& cache : caches) {
    hits += cache.hits();
    lookups += cache.hits() + cache.misses();
    evictions += cache.evictions();
    entries += cache.count();
  }
  state.counters["hit_rate"] =
      benchmark::Counter(static_cast<double>(hits) / static_cast<double>(lookups));
  state.counters["evictions_per_op"] =
      benchmark::Counter(static_cast<double>(evictions) / static_cast<double>(lookups));
  state.counters["entries_per_cache"] =
      benchmark::Counter(static_cast<double>(entries) / static_cast<double>(kCaches));
}

void BM_GdsManyCaches(benchmark::State& state) { RunManyCaches<GdsPolicy>(state); }
BENCHMARK(BM_GdsManyCaches)->Arg(270'000)->Iterations(2'000'000);

void BM_LruManyCaches(benchmark::State& state) { RunManyCaches<LruPolicy>(state); }
BENCHMARK(BM_LruManyCaches)->Arg(3'000'000)->Iterations(2'000'000);

}  // namespace
}  // namespace past
