// Placement-policy ablation under adversarial workloads.
//
// Sweeps every (workload, placement) cell over the generators in
// src/workload/adversarial.h and reports, per cell: insert failure ratio,
// global cache hit ratio and modeled p50/p95 fetch latency.
//
// Flags (besides the common --nodes/--files/--refs/--seed/--jobs):
//   --placement kclosest|residual|random|all   (default all; the other
//                                               PlacementKinds exit 2)
//   --workload flash|diurnal|drift|regional|all (default all)
//   --insertion-cap X                           cache insertion-cost cap in
//                                               [0, 1] (default 0.5)
//   --residual-shed-load N                      recent-load level at which a
//                                               residual primary sheds
//                                               (default 64; 0 = never)
//   --smoke                                     tiny scale for CI
#include <algorithm>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  ExperimentConfig base = BenchConfig(cli);
  if (cli.Has("--smoke")) {
    if (!cli.Has("--nodes")) {
      base.num_nodes = 60;
    }
    base.catalog_size = static_cast<uint32_t>(cli.GetInt("--files", 4000));
    base.total_references = static_cast<uint64_t>(cli.GetInt("--refs", 40000));
  } else {
    if (!cli.Has("--nodes")) {
      base.num_nodes = 120;
    }
    base.catalog_size = static_cast<uint32_t>(cli.GetInt("--files", 15000));
    base.total_references = static_cast<uint64_t>(cli.GetInt("--refs", 150000));
  }
  base.past.cache_mode = CacheMode::kGreedyDualSize;
  base.past.cache_insertion_cost_cap = cli.GetDouble("--insertion-cap", 0.5);
  base.adversarial = true;
  const std::string placement_flag = cli.GetString("--placement", "all");
  const std::string workload_flag = cli.GetString("--workload", "all");
  const uint64_t residual_shed_load =
      static_cast<uint64_t>(cli.GetInt("--residual-shed-load", 64));
  SuiteOptions suite = BenchSuiteOptions(cli);
  cli.ExitOnUnknownFlags();
  ValidateOrDie(base);

  // The grid's placement kinds; the k-closest diversion variants are
  // bench_ablation_diversion_policy's rows.
  constexpr PlacementKind kPlacements[] = {PlacementKind::kKClosestDiversion,
                                           PlacementKind::kResidualPerformance,
                                           PlacementKind::kRandomizedCacheSize};
  std::optional<PlacementKind> only_placement;
  if (placement_flag != "all") {
    only_placement = PlacementKindFromName(placement_flag.c_str());
    if (!only_placement.has_value() ||
        std::find(std::begin(kPlacements), std::end(kPlacements), *only_placement) ==
            std::end(kPlacements)) {
      std::fprintf(stderr,
                   "error: --placement must be kclosest, residual, random or all (got %s)\n",
                   placement_flag.c_str());
      return 2;
    }
  }
  std::optional<AdversarialKind> only_workload;
  if (workload_flag != "all") {
    AdversarialKind kind;
    if (!AdversarialKindFromName(workload_flag.c_str(), &kind)) {
      std::fprintf(stderr, "error: unknown --workload %s\n", workload_flag.c_str());
      return 2;
    }
    only_workload = kind;
  }

  PrintHeader("Policy ablation: placement x adversarial workload", base);

  // The full grid is workload-major. A cell runs with seed base + 2 * its
  // index in the full grid, whichever cells the filters select, so a
  // filtered run prints the same row for a cell as the full grid does.
  constexpr AdversarialKind kWorkloads[] = {AdversarialKind::kFlashCrowd, AdversarialKind::kDiurnal,
                                            AdversarialKind::kZipfDrift,
                                            AdversarialKind::kRegionalFailure};
  struct Cell {
    AdversarialKind workload;
    PlacementKind placement;
  };
  std::vector<Cell> cells;
  std::vector<ExperimentConfig> configs;
  uint64_t grid_index = 0;
  for (AdversarialKind w : kWorkloads) {
    for (PlacementKind p : kPlacements) {
      uint64_t index = grid_index++;
      if ((only_workload.has_value() && w != *only_workload) ||
          (only_placement.has_value() && p != *only_placement)) {
        continue;
      }
      ExperimentConfig config = base;
      config.seed = base.seed + 2 * index;
      config.adversarial_kind = w;
      config.past.placement = {p, residual_shed_load};
      cells.push_back({w, p});
      configs.push_back(config);
    }
  }

  suite.derive_seeds = false;
  std::vector<ExperimentResult> results = RunExperimentSuite(configs, suite);

  std::printf("workload,placement,failure_ratio,hit_ratio,p50_ms,p95_ms\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    std::printf("%s,%s,%.4f,%.4f,%.2f,%.2f\n", AdversarialKindName(cells[i].workload),
                PlacementKindName(cells[i].placement), r.failure_ratio,
                r.global_cache_hit_rate, r.lookup_latency_p50_ms, r.lookup_latency_p95_ms);
  }
  PrintBenchFooter(stopwatch);
  return 0;
}
