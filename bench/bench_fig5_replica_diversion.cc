// Reproduces Figure 5: the cumulative ratio of diverted replicas to all
// stored replicas versus storage utilization (t_pri=0.1, t_div=0.05).
//
// Paper shape: <10% of replicas are diverted at 80% utilization; the ratio
// rises toward ~15-18% as the system saturates.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  ExperimentConfig config = BenchConfig(cli);
  const SuiteOptions suite = BenchSuiteOptions(cli);
  cli.ExitOnUnknownFlags();
  PrintHeader("Figure 5: replica diversion ratio vs utilization", config);

  ExperimentResult r = RunExperimentSuite({config}, suite).front();
  std::printf("utilization,replica_diversion_ratio\n");
  for (const CurveSample& s : r.curve) {
    double denom = std::max<uint64_t>(s.replicas_stored, 1);
    std::printf("%.4f,%.6f\n", s.utilization, static_cast<double>(s.replicas_diverted) / denom);
  }
  std::printf("\n# paper: ratio < 0.10 at 80%% utilization, ~0.16 at full saturation.\n");
  PrintBenchFooter(stopwatch);
  return 0;
}
