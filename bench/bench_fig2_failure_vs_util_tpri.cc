// Reproduces Figure 2: cumulative insert-failure ratio versus storage
// utilization for t_pri in {0.05, 0.1, 0.2, 0.5} (t_div = 0.05).
//
// Paper shape: smaller t_pri shows failures earlier (large files rejected at
// low utilization) but stays flat; larger t_pri defers failures until very
// high utilization, then climbs steeply.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  ExperimentConfig base = BenchConfig(cli);
  const SuiteOptions suite = BenchSuiteOptions(cli);
  cli.ExitOnUnknownFlags();
  PrintHeader("Figure 2: cumulative failure ratio vs utilization, per t_pri", base);

  const std::vector<double> tpri_values = {0.05, 0.1, 0.2, 0.5};
  std::vector<ExperimentConfig> configs;
  for (double t_pri : tpri_values) {
    ExperimentConfig config = base;
    config.t_pri = t_pri;
    config.t_div = 0.05;
    configs.push_back(config);
  }
  std::vector<ExperimentResult> results = RunExperimentSuite(configs, suite);

  std::printf("t_pri,utilization,cumulative_failure_ratio\n");
  for (size_t i = 0; i < results.size(); ++i) {
    for (const CurveSample& s : results[i].curve) {
      std::printf("%.2f,%.4f,%.6f\n", tpri_values[i], s.utilization,
                  s.cumulative_failure_ratio);
    }
  }
  PrintBenchFooter(stopwatch);
  return 0;
}
