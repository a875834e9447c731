// Reproduces Figure 4: the ratio of inserted files diverted once, twice, and
// three times (re-salted fileIds), plus the cumulative insertion failure
// ratio, versus storage utilization (t_pri=0.1, t_div=0.05).
//
// Paper shape: file diversions are negligible below ~83% utilization, then
// single diversions rise first, double and triple diversions appearing only
// near saturation, with failures (after 3 diversions) last.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  ExperimentConfig config = BenchConfig(cli);
  const SuiteOptions suite = BenchSuiteOptions(cli);
  cli.ExitOnUnknownFlags();
  PrintHeader("Figure 4: file diversion ratios vs utilization", config);

  // Single configuration, routed through the suite so --jobs and the derived
  // seed (index 0 -> unchanged) behave exactly like the sweep benches.
  ExperimentResult r = RunExperimentSuite({config}, suite).front();
  std::printf("utilization,ratio_1_redirect,ratio_2_redirects,ratio_3_redirects,failure_ratio\n");
  for (const CurveSample& s : r.curve) {
    double denom = std::max<uint64_t>(s.inserts_attempted, 1);
    std::printf("%.4f,%.6f,%.6f,%.6f,%.6f\n", s.utilization,
                static_cast<double>(s.diverted_once) / denom,
                static_cast<double>(s.diverted_twice) / denom,
                static_cast<double>(s.diverted_thrice) / denom, s.cumulative_failure_ratio);
  }
  std::printf("\n# paper: all ratios ~0 below 83%% utilization; 1-redirect peaks ~3.5%%.\n");
  PrintBenchFooter(stopwatch);
  return 0;
}
