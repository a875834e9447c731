// perfbench: the repository benchmark.
//
//   perfbench --workload <fill|lookup-cache|durable-churn|scale-churn>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload sized to take about --seconds of timed work, checks its
// outputs, prints a human-readable report and, as the last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the metrics are the
// per-layer ones, from a traced run (plus shorter runs for the overhead). Exits 1 when
// a correctness check fails, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      std::cerr << "error: unknown argument " << key << "\n";
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::cerr << "error: arguments come in --key value pairs\n";
    return false;
  }
  if (args.seconds <= 0.0) {
    std::cerr << "error: --seconds must be positive\n";
    return false;
  }
  return true;
}

// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

// The middle value, or the mean of the two middle values for an even count.
double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Rate(const RunResult& r) {
  return r.phase_s > 0 ? static_cast<double>(r.ops) / r.phase_s : 0.0;
}

// Runs the named workload, sized so its timed phase takes about `seconds`
// on a 4-core x86 machine. Returns false for an unknown name.
bool RunNamed(const Args& args, const RunOptions& options, RunResult& result) {
  double s = args.seconds;
  if (args.workload == "fill") {
    FillSpec spec;
    spec.nodes = std::max<size_t>(20, static_cast<size_t>(std::lround(30.0 * s)));
    result = RunFill(spec, options);
  } else if (args.workload == "lookup-cache") {
    LookupCacheSpec spec;
    spec.references = static_cast<uint64_t>(std::llround(50'000.0 * s));
    spec.catalog = static_cast<uint32_t>(spec.references / 5);
    result = RunLookupCache(spec, options);
  } else if (args.workload == "durable-churn") {
    DurableChurnSpec spec;
    spec.ops = static_cast<uint64_t>(std::llround(20'000.0 * s));
    result = RunDurableChurn(spec, options);
  } else if (args.workload == "scale-churn") {
    ScaleChurnSpec spec;
    unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    spec.jobs = std::min<size_t>(4, cores);
    size_t per_epoch = static_cast<size_t>(std::llround(60'000.0 * s / 6.0 / 2.0));
    spec.inserts_per_epoch = per_epoch;
    spec.lookups_per_epoch = per_epoch;
    result = RunScaleChurn(spec, options);
  } else {
    return false;
  }
  return true;
}

std::string Num(double v) {
  std::ostringstream out;
  out.precision(10);
  out << v;
  return out.str();
}

// One end-to-end row: N/A when the workload has no such operation.
void Row(const std::string& name, const std::string& unit, bool present, double value,
         const std::string& samples) {
  std::printf("  %-20s %16s %-6s %s\n", name.c_str(), present ? Num(value).c_str() : "N/A",
              unit.c_str(), samples.c_str());
}

// Latency rows: the median, p99, and the highest percentile with at least
// ten samples beyond it.
void LatencyRows(const std::string& op, const std::string& unit, const std::vector<double>& v) {
  size_t n = v.size();
  std::string count = "n=" + std::to_string(n);
  Row(op + "_p50_" + unit, unit, n > 0, n > 0 ? Percentile(v, 0.5) : 0.0, count);
  if (unit == "ms") {
    return;
  }
  bool p99_ok = static_cast<double>(n) * 0.01 >= 10.0;
  Row(op + "_p99_" + unit, unit, p99_ok, p99_ok ? Percentile(v, 0.99) : 0.0, count);
  for (double p : {0.9999, 0.999}) {
    if (static_cast<double>(n) * (1.0 - p) >= 10.0) {
      std::ostringstream name;
      name << op << "_p" << p * 100 << "_" << unit;
      Row(name.str(), unit, true, Percentile(v, p), count);
      break;
    }
  }
}

struct EndToEnd {
  double setup_s;
  double ops_per_s;
  double peak_rss_mb;
};

EndToEnd Report(const std::string& workload, const RunResult& r) {
  EndToEnd e{Median(r.setup_s), Rate(r), r.peak_rss_mb};
  std::printf("workload %s: %llu ops in %.3f s timed phase\n", workload.c_str(),
              static_cast<unsigned long long>(r.ops), r.phase_s);
  std::printf("  %-20s %16s %-6s %s\n", "metric", "value", "unit", "samples");
  std::string setups = "median of n=" + std::to_string(r.setup_s.size()) + ":";
  for (double s : r.setup_s) {
    setups += " " + Num(s);
  }
  Row("setup_s", "s", true, e.setup_s, setups);
  Row("ops_per_s", "1/s", true, e.ops_per_s, "ops=" + std::to_string(r.ops));
  LatencyRows("insert", "us", r.insert_us);
  LatencyRows("lookup", "us", r.lookup_us);
  LatencyRows("reclaim", "us", r.reclaim_us);
  LatencyRows("rejoin", "ms", {});  // RejoinStorageNode: see NOTES.md
  LatencyRows("replay", "ms", r.replay_ms);
  bool has_inserts = r.inserts > 0;
  Row("insert_fail_ratio", "ratio", has_inserts,
      has_inserts ? static_cast<double>(r.inserts_refused) / static_cast<double>(r.inserts) : 0,
      "inserts=" + std::to_string(r.inserts));
  Row("op_fail_ratio", "ratio", r.attempted > 0,
      r.attempted > 0 ? static_cast<double>(r.ops_unsuccessful) / r.attempted : 0.0,
      "ops=" + std::to_string(r.attempted));
  Row("final_utilization", "ratio", true, r.final_utilization, "");
  bool has_lookups = r.lookups_found > 0 && !r.lookup_us.empty();
  Row("lookup_hops_mean", "hops", has_lookups,
      has_lookups ? static_cast<double>(r.lookup_hops) / r.lookups_found : 0.0,
      "found=" + std::to_string(r.lookups_found));
  Row("cache_hit_ratio", "ratio", has_lookups,
      has_lookups ? static_cast<double>(r.cache_hits) / r.lookups_found : 0.0,
      "found=" + std::to_string(r.lookups_found));
  Row("peak_rss_mb", "MB", true, e.peak_rss_mb, "");
  return e;
}

void PrintErrors(const RunResult& r) {
  for (const std::string& error : r.errors) {
    std::printf("check failed: %s\n", error.c_str());
  }
}

std::string JsonLine(bool correct, const RunResult& r,
                     const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
                         metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value] = metrics[i];
    out << (i == 0 ? "" : ", ") << "\"" << name << "\": {\"value\": " << value.first
        << ", \"unit\": \"" << value.second << "\"}";
  }
  out << "}}";
  return out.str();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    return 2;
  }
  RunOptions options;
  options.seed = args.seed;
  // Set-up is repeated and reported as a median; the scale engine's build is
  // seconds long, the others' tens of milliseconds.
  options.setup_reps = args.workload == "scale-churn" ? 3 : 7;
  RunResult result;

  if (!args.trace) {
    if (!RunNamed(args, options, result)) {
      std::cerr << "error: unknown workload '" << args.workload << "'\n";
      return 2;
    }
    EndToEnd e = Report(args.workload, result);
    PrintErrors(result);
    bool correct = result.errors.empty();
    std::cout << JsonLine(correct, result,
                          {{"setup_s", {e.setup_s, "s"}},
                           {"ops_per_s", {e.ops_per_s, "1/s"}},
                           {"peak_rss_mb", {e.peak_rss_mb, "MB"}}})
              << std::endl;
    return correct ? 0 : 1;
  }

  // Traced. The full-size traced run gives the per-layer figures. The
  // tracing overhead comes from eight pairs of eighth-size runs, untraced
  // and traced in alternating order: the median over the pairs of untraced
  // over traced ops_per_s, minus one. Short pairs spread the comparison over
  // the run, since the machine's speed drifts by more than the overhead.
  // Each traced run must reproduce its untraced twin's deterministic
  // outputs. The scale engine's epoch loop carries no instrumentation (its
  // layer figures are timings the untraced run takes too), so scale-churn
  // runs once and reports an overhead of 0.
  options.setup_reps = 1;
  options.trace = true;
  if (!RunNamed(args, options, result)) {
    std::cerr << "error: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::vector<double> ratios;
  if (args.workload != "scale-churn") {
    Args eighth = args;
    eighth.seconds = args.seconds / 8.0;
    for (int pair = 0; pair < 8; ++pair) {
      RunResult runs[2];  // untraced, traced
      for (int i = 0; i < 2; ++i) {
        int which = pair % 2 == 0 ? i : 1 - i;
        options.trace = which == 1;
        RunNamed(eighth, options, runs[which]);
      }
      for (const RunResult& r : runs) {
        result.errors.insert(result.errors.end(), r.errors.begin(), r.errors.end());
      }
      if (runs[0].witnesses != runs[1].witnesses) {
        result.errors.push_back("traced and untraced runs of one seed differ in outputs");
      }
      ratios.push_back(Rate(runs[0]) / Rate(runs[1]));
      std::printf("overhead pair %d: untraced %.1f ops/s, traced %.1f ops/s\n", pair,
                  Rate(runs[0]), Rate(runs[1]));
    }
  }
  double overhead = ratios.empty() ? 0.0 : Median(ratios) - 1.0;
  std::map<std::string, double> layer;
  for (Metric& m : result.layers) {
    if (m.name == "obs.trace_overhead") {
      m.value = overhead;
    }
    layer[m.name] = m.value;
  }
  // The layer self times plus the unattributed remainder must add up to the
  // measured op time.
  if (layer["past.op_us"] > 0) {
    double sum = LayerSelfTimeSum(result.layers);
    double op = layer["past.op_us"];
    std::printf("span accounting: layers + unattributed = %.4f us, op time = %.4f us\n", sum, op);
    if (std::fabs(sum - op) > 1e-6 * op) {
      result.errors.push_back("layer self times do not sum to the op time");
    }
  }
  std::printf("workload %s traced: %llu ops, %.1f ops/s\n", args.workload.c_str(),
              static_cast<unsigned long long>(result.ops), Rate(result));
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  for (const Metric& m : result.layers) {
    std::printf("  %-40s %16s %s\n", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str());
    metrics.push_back({m.name, {m.value, m.unit}});
  }
  PrintErrors(result);
  bool correct = result.errors.empty();
  std::cout << JsonLine(correct, result, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
