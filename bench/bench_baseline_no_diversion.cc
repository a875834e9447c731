// Reproduces the paper's baseline experiment (section 5.1): replica and file
// diversion disabled (t_pri = 1, t_div = 0, no re-salting). The paper
// reports 51.1% failed insertions and only 60.8% final utilization,
// motivating explicit storage management. The diversion-enabled run is
// printed alongside for contrast.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  ExperimentConfig base = BenchConfig(cli);
  const bool csv = cli.Has("--csv");
  cli.ExitOnUnknownFlags();
  PrintHeader("Baseline: no replica/file diversion vs full storage management", base);

  ExperimentConfig off = base;
  off.t_pri = 1.0;
  off.t_div = 0.0;
  off.replica_diversion = false;
  off.file_diversion = false;
  ExperimentResult no_diversion = RunExperiment(off);

  ExperimentResult with_diversion = RunExperiment(base);

  TablePrinter table({"Config", "Success", "Fail", "Util"});
  table.AddRow({"no diversion (tpri=1, tdiv=0)", TablePrinter::Pct(no_diversion.success_ratio),
                TablePrinter::Pct(no_diversion.failure_ratio),
                TablePrinter::Pct(no_diversion.final_utilization)});
  table.AddRow({"with diversion (tpri=0.1, tdiv=0.05)",
                TablePrinter::Pct(with_diversion.success_ratio),
                TablePrinter::Pct(with_diversion.failure_ratio),
                TablePrinter::Pct(with_diversion.final_utilization)});
  if (csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
  std::printf("\n# paper: without diversion 51.1%% of inserts fail and utilization\n"
              "# saturates at 60.8%%; with diversion >99%% succeed at >98%% utilization.\n");
  PrintBenchFooter(stopwatch);
  return 0;
}
