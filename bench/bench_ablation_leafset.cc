// Ablation: leaf set size sweep. The paper reports that moving from l=16 to
// l=32 improves utilization markedly (more scope for local load balancing),
// but growing beyond 32 yields no further benefit while raising churn costs.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  ExperimentConfig base = BenchConfig(cli);
  const bool csv = cli.Has("--csv");
  const SuiteOptions suite = BenchSuiteOptions(cli);
  cli.ExitOnUnknownFlags();
  PrintHeader("Ablation: leaf set size sweep (t_pri=0.1, t_div=0.05, d1)", base);

  const std::vector<int> l_values = {8, 16, 32, 48, 64};
  std::vector<ExperimentConfig> configs;
  for (int l : l_values) {
    ExperimentConfig config = base;
    config.pastry.leaf_set_size = l;
    configs.push_back(config);
  }
  std::vector<ExperimentResult> results = RunExperimentSuite(configs, suite);

  TablePrinter table({"l", "Success", "Fail", "File diversion", "Replica diversion", "Util"});
  for (size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    table.AddRow({std::to_string(l_values[i]), TablePrinter::Pct(r.success_ratio, 2),
                  TablePrinter::Pct(r.failure_ratio, 2),
                  TablePrinter::Pct(r.file_diversion_ratio, 2),
                  TablePrinter::Pct(r.replica_diversion_ratio, 2),
                  TablePrinter::Pct(r.final_utilization)});
  }
  if (csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
  std::printf("\n# paper: performance improves 16 -> 32, then plateaus beyond 32.\n");
  PrintBenchFooter(stopwatch);
  return 0;
}
