// Archival backup scenario: the use case PAST's introduction motivates —
// using the overlay's diversity to replace physical transport of backup
// media. A client archives a directory-like set of files, verifies that the
// archive survives the failure of several storage nodes (replica maintenance
// re-creates lost replicas), restores everything, and finally reclaims the
// storage.
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/past/client.h"
#include "src/past/past_network.h"

int main() {
  using namespace past;

  PastConfig config;
  config.k = 5;
  config.enable_maintenance = true;  // replicas are re-created under churn

  PastryConfig pastry_config;
  PastNetwork network(config, pastry_config, /*seed=*/1944);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 120; ++i) {
    nodes.push_back(network.AddStorageNode(100'000'000));
  }
  std::printf("archival network: %zu nodes, %.1f GB aggregate capacity\n",
              network.overlay().live_count(),
              static_cast<double>(network.total_capacity()) / 1e9);

  // Archive a snapshot: 40 "files" with realistic archive sizes.
  PastClient archiver(network, nodes[0], /*quota_bytes=*/1ull << 40, /*seed=*/3);
  Rng rng(17);
  struct ArchivedFile {
    std::string name;
    FileId id;
    uint64_t size;
  };
  std::vector<ArchivedFile> archive;
  for (int i = 0; i < 40; ++i) {
    std::string name = "backup/2001-03-05/vol" + std::to_string(i) + ".tar";
    uint64_t size = 50'000 + rng.NextBelow(400'000);
    ClientInsertResult r = archiver.Insert(name, size);
    if (!r.stored) {
      std::printf("FATAL: failed to archive %s\n", name.c_str());
      return 1;
    }
    archive.push_back({name, r.file_id, size});
  }
  std::printf("archived %zu files (utilization %.2f%%)\n", archive.size(),
              network.utilization() * 100.0);

  // Disaster: 15 storage nodes fail one after another. PAST's maintenance
  // restores the k-replica invariant after each failure.
  for (int i = 1; i <= 15; ++i) {
    std::vector<NodeId> live = network.overlay().live_nodes();
    network.FailStorageNode(live[live.size() / 2]);
  }
  std::printf("15 nodes failed; %llu replicas re-created by maintenance\n",
              static_cast<unsigned long long>(network.metrics().Snapshot().CounterValue(
                  "past.maintenance.replicas_recreated")));

  // Restore: every file must still be retrievable, from any access point.
  size_t restored = 0;
  uint64_t restored_bytes = 0;
  for (const ArchivedFile& f : archive) {
    LookupResult r = archiver.Lookup(f.id);
    if (r.found() && r.file_size == f.size) {
      ++restored;
      restored_bytes += r.file_size;
    } else {
      std::printf("MISSING: %s\n", f.name.c_str());
    }
  }
  std::printf("restore: %zu/%zu files intact (%.1f MB)\n", restored, archive.size(),
              static_cast<double>(restored_bytes) / 1e6);

  // The snapshot expired: reclaim everything and verify the quota returns.
  uint64_t quota_before = archiver.card().quota_remaining();
  for (const ArchivedFile& f : archive) {
    archiver.Reclaim(f.id);
  }
  std::printf("reclaimed snapshot; quota %llu -> %llu; utilization %.3f%%\n",
              static_cast<unsigned long long>(quota_before),
              static_cast<unsigned long long>(archiver.card().quota_remaining()),
              network.utilization() * 100.0);

  return restored == archive.size() ? 0 : 1;
}
