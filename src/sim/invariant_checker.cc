#include "src/sim/invariant_checker.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/crypto/sha1.h"
#include "src/storage/node_store.h"

namespace past {

namespace {

std::string Short(const std::string& hex) { return hex.substr(0, 10); }

}  // namespace

std::string InvariantReport::Summary() const {
  if (violations.empty()) {
    return "ok";
  }
  if (violations.size() == 1) {
    return violations.front();
  }
  std::ostringstream out;
  out << violations.front() << " (+" << violations.size() - 1 << " more)";
  return out.str();
}

InvariantReport InvariantChecker::Check(const PastNetwork& net, const EventQueue& queue,
                                        const std::vector<TrackedFile>& files,
                                        const std::vector<QuotaExpectation>& quotas,
                                        size_t expected_live_events) const {
  InvariantReport report;
  auto check = [&report](bool ok, auto make_msg) {
    ++report.checks;
    if (!ok) {
      report.violations.push_back(make_msg());
    }
  };

  const std::vector<NodeId> node_ids = net.StorageNodeIds();

  // --- overlay health ---
  check(net.overlay().CountLeafSetViolations() == 0,
        [&] { return "overlay: leaf-set invariant violated after convergence"; });

  // --- per-node and global storage accounting (the in-flight subset) ---
  InvariantReport accounting = CheckDuringOps(net);
  report.checks += accounting.checks;
  report.violations.insert(report.violations.end(), accounting.violations.begin(),
                           accounting.violations.end());

  // --- pointer references; caches never shadow replicas or reclaimed files ---
  // file -> holders referenced by a diversion pointer at any live node.
  std::unordered_map<FileId, std::unordered_set<NodeId, NodeIdHash>, FileIdHash> referenced;
  std::unordered_set<FileId, FileIdHash> reclaimed_ids;
  for (const TrackedFile& f : files) {
    if (f.reclaimed) {
      reclaimed_ids.insert(f.id);
    }
  }

  for (const NodeId& id : node_ids) {
    const PastNode* pn = net.storage_node(id);
    if (pn == nullptr) {
      continue;
    }
    const NodeStore& store = pn->store();
    for (const auto& [file, ptr] : store.pointers()) {
      referenced[file].insert(ptr.holder);
    }

    const FileCache* cache = pn->cache();
    if (cache != nullptr) {
      uint64_t cache_bytes = 0;
      for (const auto& [file, size] : cache->Entries()) {
        cache_bytes += size;
        check(!store.HasReplica(file), [&, file = file] {
          std::ostringstream out;
          out << "cache: node " << Short(id.ToHex()) << " caches file "
              << Short(file.ToHex()) << " it also stores as a replica";
          return out.str();
        });
        check(reclaimed_ids.count(file) == 0, [&, file = file] {
          std::ostringstream out;
          out << "cache: node " << Short(id.ToHex()) << " still caches reclaimed file "
              << Short(file.ToHex());
          return out.str();
        });
      }
      check(cache_bytes == cache->used(), [&] {
        std::ostringstream out;
        out << "cache: node " << Short(id.ToHex()) << " charges used=" << cache->used()
            << " but entries sum to " << cache_bytes;
        return out.str();
      });
      check(cache->policy().size() == cache->count(), [&] {
        std::ostringstream out;
        out << "cache: node " << Short(id.ToHex()) << " policy tracks " << cache->policy().size()
            << " files but the cache holds " << cache->count();
        return out.str();
      });
    }
  }

  // --- diverted replicas are referenced by a pointer somewhere ---
  for (const NodeId& id : node_ids) {
    const PastNode* pn = net.storage_node(id);
    if (pn == nullptr) {
      continue;
    }
    for (const auto& [file, entry] : pn->store().replicas()) {
      if (entry.kind != ReplicaKind::kDiverted) {
        continue;
      }
      auto it = referenced.find(file);
      bool ok = it != referenced.end() && it->second.count(id) > 0;
      check(ok, [&, file = file] {
        std::ostringstream out;
        out << "diversion: node " << Short(id.ToHex()) << " holds diverted replica of "
            << Short(file.ToHex()) << " but no live node points at it";
        return out.str();
      });
    }
  }

  // --- per-file replica placement ---
  for (const TrackedFile& f : files) {
    if (f.lost) {
      continue;
    }
    if (f.reclaimed) {
      check(net.CountLiveReplicas(f.id) == 0, [&] {
        std::ostringstream out;
        out << "reclaim: file " << Short(f.id.ToHex()) << " was reclaimed but "
            << net.CountLiveReplicas(f.id) << " replica(s) are back";
        return out.str();
      });
      check(referenced.find(f.id) == referenced.end(), [&] {
        std::ostringstream out;
        out << "reclaim: file " << Short(f.id.ToHex())
            << " was reclaimed but a diversion pointer survives";
        return out.str();
      });
      continue;
    }
    check(net.CountLiveReplicas(f.id) >= 1, [&] {
      std::ostringstream out;
      out << "placement: live file " << Short(f.id.ToHex()) << " has zero replicas";
      return out.str();
    });
    check(net.CountStorageInvariantViolations({f.id}) == 0, [&] {
      std::ostringstream out;
      out << "placement: file " << Short(f.id.ToHex())
          << " missing replica-or-pointer at one of its k closest nodes";
      return out.str();
    });
  }

  // --- quotas: the smartcards agree with the shadow model ---
  for (size_t i = 0; i < quotas.size(); ++i) {
    const QuotaExpectation& q = quotas[i];
    check(q.actual_remaining == q.expected_remaining, [&] {
      std::ostringstream out;
      out << "quota: client " << i << " card remaining=" << q.actual_remaining
          << " but shadow model expects " << q.expected_remaining;
      return out.str();
    });
    check(q.actual_remaining <= q.quota_total, [&] {
      std::ostringstream out;
      out << "quota: client " << i << " remaining " << q.actual_remaining
          << " exceeds total " << q.quota_total;
      return out.str();
    });
  }

  // --- no leaked event-queue entries ---
  check(queue.LiveCount() == expected_live_events, [&] {
    std::ostringstream out;
    out << "queue: " << queue.LiveCount() << " live events pending at quiescence, expected "
        << expected_live_events;
    return out.str();
  });

  return report;
}

InvariantReport InvariantChecker::CheckDuringOps(const PastNetwork& net) const {
  InvariantReport report;
  auto check = [&report](bool ok, auto make_msg) {
    ++report.checks;
    if (!ok) {
      report.violations.push_back(make_msg());
    }
  };

  uint64_t sum_used = 0;
  uint64_t sum_capacity = 0;
  uint64_t sum_replicas = 0;
  uint64_t sum_diverted = 0;
  for (const NodeId& id : net.StorageNodeIds()) {
    const PastNode* pn = net.storage_node(id);
    if (pn == nullptr) {
      continue;
    }
    const NodeStore& store = pn->store();
    sum_used += store.used();
    sum_capacity += store.capacity();
    sum_replicas += store.replica_count();
    sum_diverted += store.diverted_count();

    uint64_t replica_bytes = 0;
    size_t census_primary = 0;
    for (const auto& [file, entry] : store.replicas()) {
      (void)file;
      replica_bytes += entry.size;
      if (entry.kind == ReplicaKind::kPrimary) {
        ++census_primary;
      }
    }
    check(replica_bytes == store.used(), [&] {
      std::ostringstream out;
      out << "store: node " << Short(id.ToHex()) << " charges used=" << store.used()
          << " but replica entries sum to " << replica_bytes;
      return out.str();
    });
    check(census_primary == store.primary_count(), [&] {
      std::ostringstream out;
      out << "store: node " << Short(id.ToHex()) << " primary_count=" << store.primary_count()
          << " but entries count " << census_primary;
      return out.str();
    });
    check(store.used() <= store.capacity(), [&] {
      std::ostringstream out;
      out << "store: node " << Short(id.ToHex()) << " over capacity (used=" << store.used()
          << " cap=" << store.capacity() << ")";
      return out.str();
    });
  }

  check(sum_used == net.total_stored(), [&] {
    std::ostringstream out;
    out << "accounting: total_stored=" << net.total_stored() << " but nodes sum to "
        << sum_used;
    return out.str();
  });
  check(sum_capacity == net.total_capacity(), [&] {
    std::ostringstream out;
    out << "accounting: total_capacity=" << net.total_capacity() << " but nodes sum to "
        << sum_capacity;
    return out.str();
  });
  const obs::MetricsSnapshot metrics = net.metrics().Snapshot();
  const auto replicas_gauge = static_cast<uint64_t>(metrics.GaugeValue("past.replicas.stored"));
  const auto diverted_gauge = static_cast<uint64_t>(metrics.GaugeValue("past.replicas.diverted"));
  check(replicas_gauge == sum_replicas, [&] {
    std::ostringstream out;
    out << "accounting: replicas gauge=" << replicas_gauge << " but census counts "
        << sum_replicas;
    return out.str();
  });
  check(diverted_gauge == sum_diverted, [&] {
    std::ostringstream out;
    out << "accounting: diverted gauge=" << diverted_gauge << " but census counts "
        << sum_diverted;
    return out.str();
  });

  return report;
}

std::string NetworkStateFingerprint(const PastNetwork& net) {
  std::ostringstream out;
  out << "capacity=" << net.total_capacity() << " stored=" << net.total_stored() << '\n';
  for (const NodeId& id : net.StorageNodeIds()) {
    const PastNode* pn = net.storage_node(id);
    if (pn == nullptr) {
      continue;
    }
    const NodeStore& store = pn->store();
    out << "node " << id.ToHex() << " cap=" << store.capacity() << " used=" << store.used()
        << '\n';
    std::vector<std::string> lines;
    for (const auto& [file, entry] : store.replicas()) {
      lines.push_back("r " + file.ToHex() + " k=" +
                      std::to_string(static_cast<int>(entry.kind)) +
                      " s=" + std::to_string(entry.size));
    }
    for (const auto& [file, ptr] : store.pointers()) {
      lines.push_back("p " + file.ToHex() + " h=" + ptr.holder.ToHex() +
                      " role=" + std::to_string(static_cast<int>(ptr.role)) +
                      " s=" + std::to_string(ptr.size));
    }
    if (pn->cache() != nullptr) {
      for (const auto& [file, size] : pn->cache()->Entries()) {
        lines.push_back("c " + file.ToHex() + " s=" + std::to_string(size));
      }
    }
    std::sort(lines.begin(), lines.end());
    for (const std::string& line : lines) {
      out << line << '\n';
    }
  }
  return DigestToHex(Sha1::Hash(out.str()));
}

}  // namespace past
