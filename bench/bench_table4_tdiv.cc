// Reproduces Table 4: sensitivity to the diverted-store threshold t_div
// (0.005 ... 0.1) with t_pri fixed at 0.1, web workload, distribution d1.
//
// Paper shape: larger t_div -> higher utilization, more failures (same
// trade-off as t_pri); small t_div suppresses replica diversion and caps
// utilization earlier.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  ExperimentConfig base = BenchConfig(cli);
  const bool csv = cli.Has("--csv");
  const SuiteOptions suite = BenchSuiteOptions(cli);
  cli.ExitOnUnknownFlags();
  PrintHeader("Table 4: varying t_div (t_pri=0.1)", base);

  const std::vector<double> tdiv_values = {0.1, 0.05, 0.01, 0.005};
  std::vector<ExperimentConfig> configs;
  for (double t_div : tdiv_values) {
    ExperimentConfig config = base;
    config.past.policy.t_pri = 0.1;
    config.past.policy.t_div = t_div;
    configs.push_back(config);
  }
  std::vector<ExperimentResult> results = RunExperimentSuite(configs, suite);

  TablePrinter table({"t_div", "Success", "Fail", "File diversion", "Replica diversion",
                      "Util"});
  for (size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    table.AddRow({TablePrinter::Num(tdiv_values[i], 3), TablePrinter::Pct(r.success_ratio, 2),
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
  std::printf("\n# paper: t_div 0.1 -> 93.7%% success / 99.8%% util;\n"
              "#        t_div 0.005 -> 99.6%% success / 90.5%% util.\n");
  PrintBenchFooter(stopwatch);
  return 0;
}
