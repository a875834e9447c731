// Reproduces Table 2: insertion statistics and final utilization for the
// four node-capacity distributions d1-d4 under leaf set sizes l=16 and l=32,
// with t_pri = 0.1 and t_div = 0.05, on the web workload.
//
// Paper shape: >94% utilization at l=16, >98% at l=32; success rates 94-99%;
// replica diversion grows with the small-node-heavy distributions d3/d4.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  ExperimentConfig base = BenchConfig(cli);
  const bool csv = cli.Has("--csv");
  const SuiteOptions suite = BenchSuiteOptions(cli);
  cli.ExitOnUnknownFlags();
  PrintHeader("Table 2: storage distributions x leaf set size (t_pri=0.1, t_div=0.05)", base);

  std::vector<ExperimentConfig> configs;
  std::vector<std::pair<int, const CapacityDistribution*>> cells;
  for (int l : {16, 32}) {
    for (const CapacityDistribution* dist : {&CapacityD1(), &CapacityD2(), &CapacityD3(),
                                             &CapacityD4()}) {
      ExperimentConfig config = base;
      config.leaf_set_size = l;
      config.capacity = *dist;
      configs.push_back(config);
      cells.emplace_back(l, dist);
    }
  }
  std::vector<ExperimentResult> results = RunExperimentSuite(configs, suite);

  TablePrinter table({"l", "Dist", "Success", "Fail", "File diversion", "Replica diversion",
                      "Util"});
  for (size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    table.AddRow({std::to_string(cells[i].first), cells[i].second->name,
                  TablePrinter::Pct(r.success_ratio), TablePrinter::Pct(r.failure_ratio),
                  TablePrinter::Pct(r.file_diversion_ratio),
                  TablePrinter::Pct(r.replica_diversion_ratio),
                  TablePrinter::Pct(r.final_utilization)});
  }
  if (csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
  std::printf("\n# paper (2250 nodes, NLANR trace): l=16 util 94-95%%, l=32 util 98-99%%;\n"
              "# failures < 6%% (l=16) and < 2.2%% (l=32); d3/d4 show the most replica\n"
              "# diversion. Expect the same ordering here.\n");
  PrintBenchFooter(stopwatch);
  return 0;
}
