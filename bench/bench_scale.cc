// Extreme-scale simulation bench: flattened node state + epoch-sharded
// deterministic event loop (src/sim/scale_engine.h) at 10k-100k nodes.
//
// Usage:
//   bench_scale [--nodes N] [--jobs J] [--seed S] [--epochs E]
//               [--inserts N] [--lookups N] [--crashes N] [--joins N]
//               [--sweep-period P] [--capacity BYTES] [--mean-size BYTES]
//               [--smoke] [--scale-sweep] [--check-determinism]
//               [--mean-field] [--metrics-json PATH]
//
// --smoke          CI budget: 10k nodes, two epochs, wall-time/RSS asserted.
// --scale-sweep    runs 10k / 50k / 100k and prints the scaling table.
// --check-determinism  runs the same config at --jobs 1 and --jobs J and
//                  fails (exit 3) unless both fingerprints are bit-identical.
//                  With --seeds N it becomes the shard-invariance soak: every
//                  seed is checked at jobs 1/2/4/8.
// --mean-field     enables churn + periodic sweeps and prints the measured
//                  replica distribution against the Binomial(k, s) mean-field
//                  prediction (EXPERIMENTS.md documents the 100k run).
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/sim/scale_engine.h"

namespace past {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunTimings {
  double build_seconds = 0.0;
  double epoch_seconds = 0.0;
};

ScaleConfig ConfigFromCli(const CommandLine& cli) {
  ScaleConfig config;
  config.nodes = static_cast<size_t>(cli.GetInt("--nodes", 10'000));
  config.jobs = static_cast<size_t>(cli.GetInt("--jobs", 1));
  config.seed = static_cast<uint64_t>(cli.GetInt("--seed", 1));
  config.epochs = static_cast<size_t>(cli.GetInt("--epochs", 6));
  config.inserts_per_epoch =
      static_cast<size_t>(cli.GetInt("--inserts", static_cast<int64_t>(config.nodes / 5)));
  config.lookups_per_epoch =
      static_cast<size_t>(cli.GetInt("--lookups", static_cast<int64_t>(config.nodes / 5)));
  config.crashes_per_epoch = static_cast<size_t>(cli.GetInt("--crashes", 0));
  config.joins_per_epoch = static_cast<size_t>(cli.GetInt("--joins", 0));
  config.sweep_period = static_cast<size_t>(cli.GetInt("--sweep-period", 0));
  config.node_capacity = static_cast<uint64_t>(cli.GetInt("--capacity", 50'000'000));
  config.mean_file_size = static_cast<uint64_t>(cli.GetInt("--mean-size", 100'000));
  if (cli.Has("--mean-field")) {
    // Churn + periodic repair so the post-sweep window is Binomial: crashes
    // kill ~5% of the network per epoch, a sweep restores full replication,
    // and the epochs after the last sweep are the measurement window.
    if (config.crashes_per_epoch == 0) {
      config.crashes_per_epoch = config.nodes / 20;
    }
    if (config.sweep_period == 0) {
      config.sweep_period = 4;
    }
    if (!cli.Has("--epochs")) {
      config.epochs = config.sweep_period + 3;  // t = 3 epochs since sweep
    }
  }
  return config;
}

ScaleReport RunOne(const ScaleConfig& config, RunTimings* timings,
                   std::vector<TransportStats>* shards, TransportStats* op_totals) {
  ScaleEngine engine(config);
  double start = Now();
  engine.BuildNetwork();
  timings->build_seconds = Now() - start;
  start = Now();
  for (size_t e = 0; e < config.epochs; ++e) {
    engine.RunEpoch();
  }
  timings->epoch_seconds = Now() - start;
  if (shards != nullptr) {
    *shards = engine.shard_stats();
  }
  if (op_totals != nullptr) {
    *op_totals = engine.op_route_totals();
  }
  return engine.BuildReport();
}

void PrintReport(const ScaleConfig& config, const ScaleReport& report,
                 const RunTimings& timings) {
  double nodes_per_sec = timings.build_seconds > 0.0
                             ? static_cast<double>(config.nodes) / timings.build_seconds
                             : 0.0;
  double events_per_sec = timings.epoch_seconds > 0.0
                              ? static_cast<double>(report.events) / timings.epoch_seconds
                              : 0.0;
  double rss_mb = PeakRssMb();
  double bytes_per_node =
      config.nodes > 0 ? rss_mb * 1024.0 * 1024.0 / static_cast<double>(config.nodes) : 0.0;
  std::printf("nodes                  %zu (jobs=%zu seed=%" PRIu64 ")\n", config.nodes,
              config.jobs, config.seed);
  std::printf("build                  %.2f s (%.0f nodes/sec)\n", timings.build_seconds,
              nodes_per_sec);
  std::printf("epochs                 %zu in %.2f s (%.0f events/sec, %" PRIu64 " events)\n",
              config.epochs, timings.epoch_seconds, events_per_sec, report.events);
  std::printf("inserts                %" PRIu64 " stored / %" PRIu64 " attempted\n",
              report.inserts_stored, report.inserts);
  std::printf("lookups                %" PRIu64 " found / %" PRIu64 " issued\n",
              report.lookups_found, report.lookups);
  std::printf("utilization            %.4f (%" PRIu64 " files, %zu live nodes)\n",
              report.utilization, report.files_tracked, report.live_nodes);
  std::printf("peak RSS               %.1f MB (%.0f bytes/node)\n", rss_mb, bytes_per_node);
  std::printf("state fingerprint      %s\n", report.state_fingerprint.c_str());
  std::printf("schedule fingerprint   %s\n", report.schedule_fingerprint.c_str());
  if (!report.replica_histogram.empty()) {
    std::printf("mean-field             s=%.4f t=%zu eligible=%" PRIu64 " tv=%.4f\n",
                report.survival_probability, report.epochs_since_sweep,
                report.eligible_files, report.tv_distance);
    std::printf("  replicas  measured  predicted\n");
    for (size_t i = 0; i < report.replica_histogram.size(); ++i) {
      std::printf("  %8zu  %8" PRIu64 "  %9.1f\n", i, report.replica_histogram[i],
                  report.predicted_histogram[i]);
    }
  }
}

void AppendStats(std::string& out, const char* name, const TransportStats& s, int indent) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%*s\"%s\": {\"hops\": %" PRIu64 ", \"messages\": %" PRIu64
                ", \"bytes_sent\": %" PRIu64 ", \"rpcs\": %" PRIu64 ", \"distance\": %.6f}",
                indent, "", name, s.hops(), s.messages(), s.bytes_sent(), s.rpcs(),
                s.total_distance());
  out += buf;
}

bool WriteMetricsJson(const std::string& path, const ScaleConfig& config,
                      const ScaleReport& report, const RunTimings& timings,
                      const std::vector<TransportStats>& shards,
                      const TransportStats& op_totals) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::string out;
  char buf[512];
  out += "{\n  \"schema\": \"past-scale-metrics-v1\",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"config\": {\"nodes\": %zu, \"jobs\": %zu, \"seed\": %" PRIu64
                ", \"epochs\": %zu, \"inserts_per_epoch\": %zu, \"lookups_per_epoch\": %zu, "
                "\"crashes_per_epoch\": %zu, \"sweep_period\": %zu},\n",
                config.nodes, config.jobs, config.seed, config.epochs,
                config.inserts_per_epoch, config.lookups_per_epoch, config.crashes_per_epoch,
                config.sweep_period);
  out += buf;
  out += "  \"shards\": [\n";
  TransportStats merged;
  for (size_t s = 0; s < shards.size(); ++s) {
    merged.MergeFrom(shards[s]);
    std::snprintf(buf, sizeof(buf),
                  "    {\"shard\": %zu, \"hops\": %" PRIu64 ", \"messages\": %" PRIu64
                  ", \"bytes_sent\": %" PRIu64 ", \"rpcs\": %" PRIu64 ", \"distance\": %.6f}%s\n",
                  s, shards[s].hops(), shards[s].messages(), shards[s].bytes_sent(),
                  shards[s].rpcs(), shards[s].total_distance(),
                  s + 1 < shards.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n";
  AppendStats(out, "merged", merged, 2);
  out += ",\n";
  AppendStats(out, "op_totals", op_totals, 2);
  out += ",\n";
  double events_per_sec = timings.epoch_seconds > 0.0
                              ? static_cast<double>(report.events) / timings.epoch_seconds
                              : 0.0;
  std::snprintf(buf, sizeof(buf),
                "  \"report\": {\"inserts\": %" PRIu64 ", \"inserts_stored\": %" PRIu64
                ", \"lookups\": %" PRIu64 ", \"lookups_found\": %" PRIu64
                ", \"events\": %" PRIu64 ", \"live_nodes\": %zu, \"files\": %" PRIu64
                ", \"utilization\": %.6f,\n",
                report.inserts, report.inserts_stored, report.lookups, report.lookups_found,
                report.events, report.live_nodes, report.files_tracked, report.utilization);
  out += buf;
  double rss_mb = PeakRssMb();
  double bytes_per_node =
      config.nodes > 0 ? rss_mb * 1024.0 * 1024.0 / static_cast<double>(config.nodes) : 0.0;
  std::snprintf(buf, sizeof(buf),
                "    \"build_seconds\": %.4f, \"epoch_seconds\": %.4f, "
                "\"events_per_sec\": %.1f, \"peak_rss_mb\": %.1f, \"bytes_per_node\": %.0f,\n",
                timings.build_seconds, timings.epoch_seconds, events_per_sec, rss_mb,
                bytes_per_node);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "    \"state_fingerprint\": \"%s\", \"schedule_fingerprint\": \"%s\"}",
                report.state_fingerprint.c_str(), report.schedule_fingerprint.c_str());
  out += buf;
  if (!report.replica_histogram.empty()) {
    out += ",\n  \"mean_field\": {";
    std::snprintf(buf, sizeof(buf),
                  "\"survival\": %.6f, \"epochs_since_sweep\": %zu, \"eligible\": %" PRIu64
                  ", \"tv_distance\": %.6f, \"empirical\": [",
                  report.survival_probability, report.epochs_since_sweep,
                  report.eligible_files, report.tv_distance);
    out += buf;
    for (size_t i = 0; i < report.replica_histogram.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%" PRIu64, i == 0 ? "" : ", ",
                    report.replica_histogram[i]);
      out += buf;
    }
    out += "], \"predicted\": [";
    for (size_t i = 0; i < report.predicted_histogram.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.2f", i == 0 ? "" : ", ",
                    report.predicted_histogram[i]);
      out += buf;
    }
    out += "]}";
  }
  out += "\n}\n";
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace
}  // namespace past

int main(int argc, char** argv) {
  using namespace past;
  CommandLine cli(argc, argv);
  BenchStopwatch stopwatch;
  // Every flag is read up front, so an unknown one fails before any run.
  const ScaleConfig cli_config = ConfigFromCli(cli);
  const bool scale_sweep = cli.Has("--scale-sweep");
  const bool smoke = cli.Has("--smoke");
  const bool check_determinism = cli.Has("--check-determinism");
  const size_t soak_seeds = static_cast<size_t>(cli.GetInt("--seeds", 1));
  const std::string json_path = cli.GetString("--metrics-json", "");
  const int64_t max_bytes_per_node = cli.GetInt("--max-bytes-per-node", 0);
  cli.ExitOnUnknownFlags();

  if (scale_sweep) {
    // The tentpole measurement: 10k / 50k / 100k with churn + maintenance.
    std::printf("# bench_scale --scale-sweep\n");
    std::printf("%8s %8s %10s %12s %10s %12s\n", "nodes", "build_s", "epoch_s", "events/sec",
                "rss_mb", "bytes/node");
    for (size_t n : {size_t{10'000}, size_t{50'000}, size_t{100'000}}) {
      ScaleConfig config = cli_config;
      config.nodes = n;
      config.inserts_per_epoch = n / 5;
      config.lookups_per_epoch = n / 5;
      config.crashes_per_epoch = n / 100;
      config.joins_per_epoch = n / 200;
      config.sweep_period = 3;
      if (!cli.Has("--jobs")) {
        unsigned hw = std::thread::hardware_concurrency();
        config.jobs = hw > 0 ? std::min<size_t>(hw, 8) : 4;
      }
      RunTimings timings;
      ScaleReport report = RunOne(config, &timings, nullptr, nullptr);
      double events_per_sec = timings.epoch_seconds > 0.0
                                  ? static_cast<double>(report.events) / timings.epoch_seconds
                                  : 0.0;
      double rss_mb = PeakRssMb();
      std::printf("%8zu %8.2f %10.2f %12.0f %10.1f %12.0f\n", n, timings.build_seconds,
                  timings.epoch_seconds, events_per_sec, rss_mb,
                  rss_mb * 1024.0 * 1024.0 / static_cast<double>(n));
    }
    PrintBenchFooter(stopwatch);
    return 0;
  }

  ScaleConfig config = cli_config;
  if (!smoke && !cli.Has("--mean-field")) {
    // Full runs default to the scale-sweep churn mix so "bench_scale
    // --nodes N" exercises crashes + joins + periodic sweeps out of the box;
    // explicit flags (and the smoke / mean-field presets) still win.
    if (!cli.Has("--crashes")) {
      config.crashes_per_epoch = config.nodes / 100;
    }
    if (!cli.Has("--joins")) {
      config.joins_per_epoch = config.nodes / 200;
    }
    if (!cli.Has("--sweep-period")) {
      config.sweep_period = 3;
    }
  }
  if (smoke) {
    config.nodes = static_cast<size_t>(cli.GetInt("--nodes", 10'000));
    config.epochs = static_cast<size_t>(cli.GetInt("--epochs", 2));
    config.inserts_per_epoch = config.nodes / 10;
    config.lookups_per_epoch = config.nodes / 10;
    config.crashes_per_epoch = config.nodes / 200;
    config.sweep_period = 2;
    if (!cli.Has("--jobs")) {
      unsigned hw = std::thread::hardware_concurrency();
      config.jobs = hw > 0 ? std::min<size_t>(hw, 4) : 2;
    }
  }

  std::printf("# bench_scale (%s)\n", smoke ? "smoke" : "full");

  if (check_determinism) {
    // With --seeds N this is the shard-invariance soak: every seed is run at
    // jobs 1/2/4/8 and all four fingerprint pairs must match. Without it, one
    // seed is checked at jobs=1 vs the requested --jobs (default 4).
    std::vector<size_t> job_counts;
    if (soak_seeds > 1) {
      job_counts = {2, 4, 8};
    } else {
      job_counts = {config.jobs == 1 ? size_t{4} : config.jobs};
    }
    bool all_identical = true;
    for (size_t s = 0; s < soak_seeds; ++s) {
      ScaleConfig serial = config;
      serial.seed = config.seed + s;
      serial.jobs = 1;
      RunTimings timings;
      ScaleReport reference = RunOne(serial, &timings, nullptr, nullptr);
      if (soak_seeds == 1) {
        std::printf("jobs=1  state=%s schedule=%s\n", reference.state_fingerprint.c_str(),
                    reference.schedule_fingerprint.c_str());
      }
      for (size_t jobs : job_counts) {
        ScaleConfig sharded = serial;
        sharded.jobs = jobs;
        ScaleReport run = RunOne(sharded, &timings, nullptr, nullptr);
        bool identical = run.state_fingerprint == reference.state_fingerprint &&
                         run.schedule_fingerprint == reference.schedule_fingerprint;
        all_identical = all_identical && identical;
        if (soak_seeds == 1) {
          std::printf("jobs=%zu state=%s schedule=%s\n", jobs, run.state_fingerprint.c_str(),
                      run.schedule_fingerprint.c_str());
        } else if (!identical) {
          std::printf("seed %" PRIu64 " jobs=%zu MISMATCH\n", serial.seed, jobs);
        }
      }
      if (soak_seeds > 1 && (s + 1) % 5 == 0) {
        std::printf("seeds %zu/%zu checked\n", s + 1, soak_seeds);
      }
    }
    std::printf("determinism            %s (%zu seed%s x jobs {1",
                all_identical ? "bit-identical" : "MISMATCH", soak_seeds,
                soak_seeds == 1 ? "" : "s");
    for (size_t jobs : job_counts) {
      std::printf(",%zu", jobs);
    }
    std::printf("})\n");
    PrintBenchFooter(stopwatch);
    return all_identical ? 0 : 3;
  }

  RunTimings timings;
  std::vector<TransportStats> shards;
  TransportStats op_totals;
  ScaleReport report = RunOne(config, &timings, &shards, &op_totals);
  PrintReport(config, report, timings);

  if (!json_path.empty()) {
    if (!WriteMetricsJson(json_path, config, report, timings, shards, op_totals)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", json_path.c_str());
  }

  PrintBenchFooter(stopwatch);
  // Optional hard memory budget (CI scale-smoke asserts bytes/node so a
  // per-node state regression fails the job instead of slipping through).
  if (max_bytes_per_node > 0 && config.nodes > 0) {
    double bytes_per_node = PeakRssMb() * 1024.0 * 1024.0 / static_cast<double>(config.nodes);
    if (bytes_per_node > static_cast<double>(max_bytes_per_node)) {
      std::fprintf(stderr, "error: %.0f bytes/node exceeds --max-bytes-per-node %" PRId64 "\n",
                   bytes_per_node, max_bytes_per_node);
      return 5;
    }
  }
  if (smoke) {
    // CI budget: the smoke run must stay comfortably inside the scale-smoke
    // job's limits (wall time is also bounded by the workflow's timeout).
    double rss_mb = PeakRssMb();
    if (rss_mb > 2048.0) {
      std::fprintf(stderr, "error: smoke RSS %.1f MB exceeds 2 GB budget\n", rss_mb);
      return 4;
    }
    if (stopwatch.Seconds() > 300.0) {
      std::fprintf(stderr, "error: smoke wall time %.1f s exceeds 300 s budget\n",
                   stopwatch.Seconds());
      return 4;
    }
  }
  return 0;
}
