// sim_soak: deterministic simulation soak driver.
//
// Default mode sweeps a contiguous range of seeds through the SimRunner
// (randomized churn/fault schedules with invariant checkpoints). On the
// first failing seed it minimizes the schedule (prefix bisection + event
// class pruning) and writes a repro file; `--repro <file>` replays such a
// file deterministically. Exit status: 0 if every seed held its invariants,
// 1 on a violation, 2 on usage errors.
//
//   sim_soak --seeds 1000 --start-seed 1 --repro-out failure.repro
//   sim_soak --repro failure.repro
//   sim_soak --seeds 1 --corrupt-at 12   (inject a store corruption: must fail)
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/cli.h"
#include "src/sim/sim_runner.h"

namespace {

void PrintUsage() {
  std::cout << "usage: sim_soak [options]\n"
            << "  --seeds N        number of seeds to sweep (default 1000)\n"
            << "  --start-seed S   first seed (default 1)\n"
            << "  --nodes N        deployment size (default 24)\n"
            << "  --events N       schedule length per seed (default 160)\n"
            << "  --checkpoint N   events between invariant checkpoints (default 40)\n"
            << "  --corrupt-at I   inject a store corruption after event I (demo)\n"
            << "  --durable        journal every node's store into a fault-injected\n"
            << "                   in-memory disk (write-ahead log + replay)\n"
            << "  --recover-weight W  schedule crash-recover events with weight W\n"
            << "                   (node power-loss + rejoin with its old directory;\n"
            << "                   implies --durable, default 0 = never)\n"
            << "  --repro FILE     replay a minimized repro file and exit\n"
            << "  --repro-out FILE where to write the repro on failure\n"
            << "                   (default sim_failure.repro)\n"
            << "  --no-minimize    write the failing config without shrinking it\n";
}

void PrintResult(const past::SimResult& result) {
  std::cout << "  events=" << result.events_executed << " checkpoints=" << result.checkpoints
            << " inserted=" << result.files_inserted << " reclaimed=" << result.files_reclaimed
            << " lost=" << result.files_lost << " lookups=" << result.lookups
            << " joins=" << result.joins << " crashes=" << result.crashes
            << " partitions=" << result.partitions << " recoveries=" << result.recoveries
            << " recovered=" << result.replicas_recovered
            << " dropped=" << result.replicas_dropped << '\n'
            << "  schedule=" << result.schedule_fingerprint.substr(0, 12)
            << " state=" << result.state_fingerprint.substr(0, 12) << '\n';
}

int ReplayRepro(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "sim_soak: cannot open repro file " << path << '\n';
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::optional<past::SimConfig> config = past::ParseSimConfig(buffer.str());
  if (!config.has_value()) {
    std::cerr << "sim_soak: malformed repro file " << path << '\n';
    return 2;
  }
  std::cout << "replaying repro seed=" << config->seed << " max_events="
            << (config->max_events == past::kAllEvents ? 0 : config->max_events) << '\n';
  past::SimResult result = past::SimRunner(*config).Run();
  PrintResult(result);
  if (result.ok) {
    std::cout << "repro did NOT reproduce: all invariants held\n";
    return 0;
  }
  std::cout << "reproduced failure: " << result.failure << '\n';
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const past::CommandLine cli(argc, argv);
  if (cli.Has("--help") || cli.Has("-h")) {
    PrintUsage();
    return 0;
  }
  const uint64_t seeds = static_cast<uint64_t>(cli.GetInt("--seeds", 1000));
  const uint64_t start_seed = static_cast<uint64_t>(cli.GetInt("--start-seed", 1));
  past::SimConfig base;
  base.num_nodes = static_cast<size_t>(
      cli.GetInt("--nodes", static_cast<int64_t>(base.num_nodes)));
  base.schedule.num_events = static_cast<size_t>(
      cli.GetInt("--events", static_cast<int64_t>(base.schedule.num_events)));
  base.checkpoint_every = static_cast<size_t>(
      cli.GetInt("--checkpoint", static_cast<int64_t>(base.checkpoint_every)));
  if (cli.Has("--corrupt-at")) {
    base.corrupt_at_event = static_cast<uint64_t>(cli.GetInt("--corrupt-at", 0));
  }
  base.durable_store = cli.Has("--durable");
  if (cli.Has("--recover-weight")) {
    base.schedule.recover_weight = cli.GetDouble("--recover-weight", 0.0);
    base.durable_store = true;  // rejoining with a directory needs one
  }
  const std::string repro_path = cli.GetString("--repro", "");
  const std::string repro_out = cli.GetString("--repro-out", "sim_failure.repro");
  const bool minimize = !cli.Has("--no-minimize");
  cli.ExitOnUnknownFlags();

  if (!repro_path.empty()) {
    return ReplayRepro(repro_path);
  }
  // The sweep's config must pass the checks a repro file does.
  const std::vector<std::string> errors = past::ValidateSimConfig(base);
  for (const std::string& error : errors) {
    std::cerr << "error: " << error << '\n';
  }
  if (!errors.empty()) {
    return 2;
  }

  uint64_t passed = 0;
  for (uint64_t s = 0; s < seeds; ++s) {
    past::SimConfig config = base;
    config.seed = start_seed + s;
    past::SimResult result = past::SimRunner(config).Run();
    if (result.ok) {
      ++passed;
      if ((s + 1) % 50 == 0 || s + 1 == seeds) {
        std::cout << "seeds " << passed << '/' << s + 1 << " ok\n";
      }
      continue;
    }

    std::cout << "seed " << config.seed << " FAILED: " << result.failure << '\n';
    PrintResult(result);
    std::string repro_text;
    if (minimize) {
      std::cout << "minimizing...\n";
      std::optional<past::MinimizeOutcome> minimized = past::MinimizeFailure(config);
      if (minimized.has_value()) {
        std::cout << "  minimized " << minimized->original_events << " -> "
                  << minimized->minimized_events << " events in " << minimized->runs
                  << " runs";
        if (!minimized->pruned_classes.empty()) {
          std::cout << " (pruned:";
          for (const std::string& cls : minimized->pruned_classes) {
            std::cout << ' ' << cls;
          }
          std::cout << ')';
        }
        std::cout << "\n  minimized failure: " << minimized->failure << '\n';
        repro_text = past::SerializeSimConfig(minimized->minimized, minimized->failure);
      } else {
        std::cout << "  minimization could not re-reproduce; writing original config\n";
        repro_text = past::SerializeSimConfig(config, result.failure);
      }
    } else {
      repro_text = past::SerializeSimConfig(config, result.failure);
    }
    std::ofstream out(repro_out);
    out << repro_text;
    out.close();
    std::cout << "repro written to " << repro_out << '\n';
    return 1;
  }
  std::cout << "all " << passed << " seed(s) held every invariant\n";
  return 0;
}
