// Shared setup for the experiment bench binaries.
//
// Every bench runs with scaled-down defaults so `for b in build/bench/*; do
// $b; done` completes in minutes on one core; pass --paper-scale for the
// paper's 2250 nodes and full trace sizes, or override individual knobs
// (--nodes, --files, --refs, --seed, --csv).
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/harness/cli.h"
#include "src/harness/experiment.h"
#include "src/harness/suite.h"
#include "src/harness/table_printer.h"

namespace past {

// Validates `config`, printing every problem; exits with status 2 when
// invalid so a bad flag combination fails loudly instead of mid-run.
inline void ValidateOrDie(const ExperimentConfig& config) {
  std::vector<std::string> errors = config.Validate();
  if (errors.empty()) {
    return;
  }
  for (const std::string& error : errors) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
  }
  std::exit(2);
}

// Reads the flags every experiment bench shares (each one unconditionally,
// so CommandLine::ExitOnUnknownFlags knows them all) and validates the result.
inline ExperimentConfig BenchConfig(const CommandLine& cli) {
  ExperimentConfig config;
  // catalog 0 = auto: num_nodes * 800 files, preserving the paper's
  // files-per-node ratio that governs packing at saturation.
  config.num_nodes = static_cast<size_t>(cli.GetInt("--nodes", 300));
  config.catalog_size = static_cast<uint32_t>(cli.GetInt("--files", 0));
  if (cli.Has("--paper-scale")) {
    config.num_nodes = 2250;
    config.catalog_size = 1863055;
  }
  config.seed = static_cast<uint64_t>(cli.GetInt("--seed", 42));
  config.past.policy.t_pri = cli.GetDouble("--tpri", 0.1);
  config.past.policy.t_div = cli.GetDouble("--tdiv", 0.05);
  config.demand_factor = cli.GetDouble("--demand", 1.53);
  // Observability: dump the aggregated metrics registry / per-op JSONL trace
  // at end of run. With several RunExperiment calls per bench, each run
  // overwrites the file, so the dump reflects the final configuration.
  config.metrics_json_path = cli.GetString("--metrics-json", "");
  config.trace_jsonl_path = cli.GetString("--trace-jsonl", "");
  ValidateOrDie(config);
  return config;
}

inline void PrintHeader(const char* what, const ExperimentConfig& config) {
  std::printf("# %s\n", what);
  std::printf("# nodes=%zu files=%u k=%u b=%d l=%d seed=%llu\n", config.num_nodes,
              config.catalog_size, config.past.k, config.pastry.b, config.pastry.leaf_set_size,
              static_cast<unsigned long long>(config.seed));
}

// Worker threads for multi-configuration benches (--jobs N). Results are
// bit-identical for any N: RunExperimentSuite derives each configuration's
// seed from its index, never from shared RNG state.
inline SuiteOptions BenchSuiteOptions(const CommandLine& cli) {
  SuiteOptions options;
  options.jobs = static_cast<int>(cli.GetInt("--jobs", 1));
  return options;
}

// Wall-clock from program start, for the standard bench footer.
class BenchStopwatch {
 public:
  BenchStopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Peak resident set size of this process (Linux reports ru_maxrss in KiB).
inline double PeakRssMb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Every bench binary ends with this line so serial-vs-parallel wins (and
// memory cost) are visible without parsing any JSON output.
inline void PrintBenchFooter(const BenchStopwatch& stopwatch) {
  std::printf("# wall-time %.2f s, peak RSS %.1f MB\n", stopwatch.Seconds(), PeakRssMb());
}

}  // namespace past

#endif  // BENCH_BENCH_COMMON_H_
