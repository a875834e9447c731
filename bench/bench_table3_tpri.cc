// Reproduces Table 3: sensitivity to the primary-store threshold t_pri
// (0.05 ... 0.5) with t_div fixed at 0.05, web workload, distribution d1.
//
// Paper shape: larger t_pri -> higher final utilization but more failed
// inserts (large files are accepted longer, exhausting space sooner).
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  ExperimentConfig base = BenchConfig(cli);
  const bool csv = cli.Has("--csv");
  const SuiteOptions suite = BenchSuiteOptions(cli);
  cli.ExitOnUnknownFlags();
  PrintHeader("Table 3: varying t_pri (t_div=0.05)", base);

  const std::vector<double> tpri_values = {0.5, 0.2, 0.1, 0.05};
  std::vector<ExperimentConfig> configs;
  for (double t_pri : tpri_values) {
    ExperimentConfig config = base;
    config.t_pri = t_pri;
    config.t_div = 0.05;
    configs.push_back(config);
  }
  std::vector<ExperimentResult> results = RunExperimentSuite(configs, suite);

  TablePrinter table({"t_pri", "Success", "Fail", "File diversion", "Replica diversion",
                      "Util"});
  for (size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    table.AddRow({TablePrinter::Num(tpri_values[i], 2), TablePrinter::Pct(r.success_ratio, 2),
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
  std::printf("\n# paper: t_pri 0.5 -> 88.0%% success / 99.7%% util;\n"
              "#        t_pri 0.05 -> 99.7%% success / 97.4%% util.\n");
  PrintBenchFooter(stopwatch);
  return 0;
}
