// Reproduces Figure 8: global cache hit ratio and average number of routing
// hops per successful lookup versus storage utilization, comparing
// GreedyDual-Size, LRU, and no caching, on the web reference stream
// (inserts on first reference, lookups on repeats, c = 1).
//
// Paper shape: hit rate decays as utilization grows (caches shrink); average
// hops rise with utilization but stay below the no-cache line even at 99%;
// GD-S dominates LRU on both metrics; the no-cache line is flat at about
// ceil(log_16 N) with a slight rise from diverted-replica pointer hops.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  ExperimentConfig base = BenchConfig(cli);
  const uint64_t refs = static_cast<uint64_t>(cli.GetInt("--refs", 250000));
  if (cli.Has("--paper-scale")) {
    base.total_references = 4000000;
  } else {
    base.catalog_size = static_cast<uint32_t>(cli.GetInt("--files", 25000));
    base.total_references = refs;
  }
  const SuiteOptions suite = BenchSuiteOptions(cli);
  cli.ExitOnUnknownFlags();
  PrintHeader("Figure 8: cache hit rate and lookup hops vs utilization", base);

  struct Mode {
    const char* name;
    CacheMode mode;
  };
  const std::vector<Mode> modes = {Mode{"GD-S", CacheMode::kGreedyDualSize},
                                   Mode{"LRU", CacheMode::kLru},
                                   Mode{"None", CacheMode::kNone}};
  std::vector<ExperimentConfig> configs;
  for (const Mode& m : modes) {
    ExperimentConfig config = base;
    config.past.cache_mode = m.mode;
    configs.push_back(config);
  }
  std::vector<ExperimentResult> results = RunExperimentSuite(configs, suite);

  std::printf("policy,utilization,window_hit_rate,window_avg_hops\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    for (const CurveSample& s : r.curve) {
      if (s.window_lookups == 0) {
        continue;
      }
      std::printf("%s,%.4f,%.4f,%.3f\n", modes[i].name, s.utilization, s.window_hit_rate,
                  s.window_avg_hops);
    }
    std::printf("# %s overall: hit rate %.3f, avg hops %.3f over %llu lookups\n", modes[i].name,
                r.global_cache_hit_rate, r.avg_lookup_hops,
                static_cast<unsigned long long>(r.lookups));
  }
  PrintBenchFooter(stopwatch);
  return 0;
}
