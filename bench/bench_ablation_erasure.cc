// Ablation for section 3.6: k-replication versus Reed-Solomon erasure coding.
// Compares storage overhead and loss tolerance analytically and validates the
// codec by simulating random shard loss, plus measures encode/reconstruct
// throughput.
#include <chrono>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/erasure/reed_solomon.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  cli.ExitOnUnknownFlags();  // this bench takes no flags
  std::printf("# Ablation: replication vs Reed-Solomon erasure coding (section 3.6)\n\n");

  TablePrinter table({"Scheme", "Tolerates", "Storage overhead", "Fragments/lookup",
                      "Verified recovery"});

  Rng rng(7);
  auto verify = [&](int n, int m) {
    ReedSolomon rs(n, m);
    std::vector<std::vector<uint8_t>> data(static_cast<size_t>(n),
                                           std::vector<uint8_t>(4096));
    for (auto& shard : data) {
      for (auto& b : shard) {
        b = static_cast<uint8_t>(rng.NextBelow(256));
      }
    }
    auto parity = rs.Encode(data);
    std::vector<std::optional<std::vector<uint8_t>>> shards;
    for (const auto& d : data) {
      shards.emplace_back(d);
    }
    for (const auto& p : parity) {
      shards.emplace_back(p);
    }
    // Drop m random shards.
    for (int e = 0; e < m; ++e) {
      size_t pick;
      do {
        pick = rng.NextBelow(shards.size());
      } while (!shards[pick]);
      shards[pick] = std::nullopt;
    }
    auto rebuilt = rs.Reconstruct(shards);
    return rebuilt.has_value() && *rebuilt == data;
  };

  table.AddRow({"k=5 replication (paper)", "4 losses", TablePrinter::Num(5.0, 2) + "x", "1",
                "n/a"});
  for (auto [n, m] : {std::pair<int, int>{4, 4}, {8, 4}, {16, 4}, {10, 5}}) {
    bool ok = verify(n, m);
    table.AddRow({"RS(" + std::to_string(n) + "," + std::to_string(m) + ")",
                  std::to_string(m) + " losses",
                  TablePrinter::Num(ReedSolomon::StorageOverhead(n, m), 2) + "x",
                  std::to_string(n), ok ? "yes" : "NO"});
  }
  table.Print();

  // Throughput of the codec on 1 MB of data.
  const int n = 8, m = 4;
  ReedSolomon rs(n, m);
  std::string blob(1 << 20, '\0');
  for (auto& c : blob) {
    c = static_cast<char>(rng.NextBelow(256));
  }
  auto shards = rs.Split(blob);
  auto start = std::chrono::steady_clock::now();
  const int reps = 20;
  for (int i = 0; i < reps; ++i) {
    auto parity = rs.Encode(shards);
    if (parity.size() != static_cast<size_t>(m)) {
      return 1;
    }
  }
  auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  double mb_per_s = reps * (1.0) / elapsed;
  std::printf("\n# RS(%d,%d) encode throughput: %.1f MB/s (1 MB blob, %d reps)\n", n, m,
              mb_per_s, reps);
  std::printf("# trade-off (paper section 3.6): RS cuts the 5x replication overhead to\n"
              "# ~1.5x for the same loss tolerance, at the cost of contacting n nodes\n"
              "# per lookup instead of 1 — worthwhile only for large files.\n");
  PrintBenchFooter(stopwatch);
  return 0;
}
