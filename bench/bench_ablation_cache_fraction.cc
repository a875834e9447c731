// Ablation: the cache admission fraction c (paper section 4 — a routed file
// is cached only if its size is below c times the node's current cache
// capacity; the Figure 8 experiment fixes c = 1).
//
// Expected: very small c rejects most files and loses the caching benefit;
// c near 1 maximizes hit rate on this workload (few huge files pollute the
// cache because GD-S evicts them first anyway).
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  ExperimentConfig base = BenchConfig(cli);
  base.cache_mode = CacheMode::kGreedyDualSize;
  const uint64_t refs = static_cast<uint64_t>(cli.GetInt("--refs", 250000));
  if (!cli.Has("--paper-scale")) {
    base.catalog_size = static_cast<uint32_t>(cli.GetInt("--files", 25000));
    base.total_references = refs;
  } else {
    base.total_references = 4000000;
  }
  const bool csv = cli.Has("--csv");
  const SuiteOptions suite = BenchSuiteOptions(cli);
  cli.ExitOnUnknownFlags();
  PrintHeader("Ablation: cache admission fraction c (GD-S)", base);

  const std::vector<double> c_values = {0.001, 0.01, 0.1, 0.5, 1.0};
  std::vector<ExperimentConfig> configs;
  for (double c : c_values) {
    ExperimentConfig config = base;
    config.cache_fraction_c = c;
    configs.push_back(config);
  }
  std::vector<ExperimentResult> results = RunExperimentSuite(configs, suite);

  TablePrinter table({"c", "Hit rate", "Avg hops", "Final util"});
  for (size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    table.AddRow({TablePrinter::Num(c_values[i], 3),
                  TablePrinter::Num(r.global_cache_hit_rate, 3),
                  TablePrinter::Num(r.avg_lookup_hops, 3),
                  TablePrinter::Pct(r.final_utilization)});
  }
  if (csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
  PrintBenchFooter(stopwatch);
  return 0;
}
