// Ablation: how much does the choice of diversion target matter? The paper's
// policy picks the leaf-set node with maximal remaining free space
// (section 3.3.1); we compare against random and first-fit selection.
//
// Expected: max-free-space achieves the best utilization/failure trade-off;
// random spreads poorly and fails earlier.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  ExperimentConfig base = BenchConfig(cli);
  const bool csv = cli.Has("--csv");
  const SuiteOptions suite = BenchSuiteOptions(cli);
  cli.ExitOnUnknownFlags();
  PrintHeader("Ablation: replica-diversion target selection policy", base);

  struct Policy {
    const char* name;
    DiversionSelection selection;
  };
  const std::vector<Policy> policies = {
      Policy{"max-free-space (paper)", DiversionSelection::kMaxFreeSpace},
      Policy{"random", DiversionSelection::kRandom},
      Policy{"first-fit", DiversionSelection::kFirstFit}};
  std::vector<ExperimentConfig> configs;
  for (const Policy& p : policies) {
    ExperimentConfig config = base;
    config.diversion_selection = p.selection;
    configs.push_back(config);
  }
  std::vector<ExperimentResult> results = RunExperimentSuite(configs, suite);

  TablePrinter table({"Selection", "Success", "Fail", "Replica diversion", "Util"});
  for (size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    table.AddRow({policies[i].name, TablePrinter::Pct(r.success_ratio, 2),
                  TablePrinter::Pct(r.failure_ratio, 2),
                  TablePrinter::Pct(r.replica_diversion_ratio, 2),
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
