// Reproduces Figure 3: cumulative insert-failure ratio versus storage
// utilization for t_div in {0.005, 0.01, 0.05, 0.1} (t_pri = 0.1).
//
// Paper shape: same trade-off as Figure 2 — permissive t_div reaches higher
// utilization before failures climb; restrictive t_div fails earlier but
// keeps the failure curve flat longer at low utilization.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  ExperimentConfig base = BenchConfig(cli);
  const SuiteOptions suite = BenchSuiteOptions(cli);
  cli.ExitOnUnknownFlags();
  PrintHeader("Figure 3: cumulative failure ratio vs utilization, per t_div", base);

  const std::vector<double> tdiv_values = {0.005, 0.01, 0.05, 0.1};
  std::vector<ExperimentConfig> configs;
  for (double t_div : tdiv_values) {
    ExperimentConfig config = base;
    config.t_pri = 0.1;
    config.t_div = t_div;
    configs.push_back(config);
  }
  std::vector<ExperimentResult> results = RunExperimentSuite(configs, suite);

  std::printf("t_div,utilization,cumulative_failure_ratio\n");
  for (size_t i = 0; i < results.size(); ++i) {
    for (const CurveSample& s : results[i].curve) {
      std::printf("%.3f,%.4f,%.6f\n", tdiv_values[i], s.utilization,
                  s.cumulative_failure_ratio);
    }
  }
  PrintBenchFooter(stopwatch);
  return 0;
}
