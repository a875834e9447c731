// Reproduces Figure 6: a scatter of failed insertions by file size versus
// the utilization at which each failure occurred, plus the overall failure
// ratio curve, for the web workload (t_pri=0.1, t_div=0.05).
//
// Paper shape: early failures are exclusively huge files; as utilization
// grows, progressively smaller files fail; a file of average size is first
// rejected only at ~90.5% utilization, and the failure ratio stays below
// 0.05 until ~95%.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  ExperimentConfig config = BenchConfig(cli);
  cli.ExitOnUnknownFlags();
  config.workload = WorkloadKind::kWeb;
  PrintHeader("Figure 6: failed insertions by size vs utilization (web workload)", config);

  ExperimentResult r = RunExperiment(config);

  std::printf("## scatter: utilization,failed_file_size\n");
  for (const FailureRecord& f : r.failures) {
    std::printf("%.4f,%llu\n", f.utilization, static_cast<unsigned long long>(f.size));
  }
  std::printf("## curve: utilization,failure_ratio\n");
  for (const CurveSample& s : r.curve) {
    std::printf("%.4f,%.6f\n", s.utilization, s.cumulative_failure_ratio);
  }

  // Headline checks mirrored from the paper's text.
  double first_avg_fail = 1.0;
  for (const FailureRecord& f : r.failures) {
    if (static_cast<double>(f.size) <= r.mean_file_size) {
      first_avg_fail = f.utilization;
      break;
    }
  }
  std::printf("\n# mean file size: %.0f bytes\n", r.mean_file_size);
  std::printf("# first failure of a below-average-size file at utilization: %.3f\n",
              first_avg_fail);
  std::printf("# final failure ratio: %.4f at utilization %.4f\n", r.failure_ratio,
              r.final_utilization);
  std::printf("# paper: first average-size rejection at 90.5%% util; failure ratio\n"
              "# <0.05 below 95%% util, reaching ~0.25 at 98%%.\n");
  PrintBenchFooter(stopwatch);
  return 0;
}
