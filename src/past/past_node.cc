#include "src/past/past_node.h"

#include "src/cache/gds_policy.h"
#include "src/cache/lru_policy.h"

namespace past {
namespace {

std::unique_ptr<FileCache> MakeCache(const PastConfig& config) {
  switch (config.cache_mode) {
    case CacheMode::kNone:
      return nullptr;
    case CacheMode::kLru:
      return std::make_unique<FileCache>(std::make_unique<LruPolicy>(), config.cache_fraction_c,
                                         config.cache_insertion_cost_cap);
    case CacheMode::kGreedyDualSize:
      return std::make_unique<FileCache>(std::make_unique<GdsPolicy>(), config.cache_fraction_c,
                                         config.cache_insertion_cost_cap);
  }
  return nullptr;
}

}  // namespace

PastNode::PastNode(const NodeId& id, const PastConfig& config, uint64_t capacity_bytes, Rng& rng)
    : id_(id),
      config_(config),
      store_(capacity_bytes),
      cache_(MakeCache(config)),
      card_(rng, /*quota_bytes=*/0) {
  if (config.compact_store_tables) {
    store_.SetCompactTables();
  }
  if (cache_ != nullptr) {
    // The cache records hit/miss tallies into the registry live, so it needs
    // the instruments up front; with caching off the registry stays unbuilt
    // until something actually reads metrics.
    cache_->BindMetrics(&EnsureMetrics());
  }
}

obs::MetricsRegistry& PastNode::EnsureMetrics() const {
  if (metrics_ == nullptr) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    // The cache counters exist (at zero) even with caching off, so metrics
    // dumps have the same schema in every mode.
    metrics_->GetCounter("node.cache.hits");
    metrics_->GetCounter("node.cache.misses");
    metrics_->GetCounter("node.cache.insertions");
    metrics_->GetCounter("node.cache.evictions");
    metrics_->GetCounter("node.load.ops");
  }
  return *metrics_;
}

void PastNode::RefreshGauges() const {
  obs::MetricsRegistry& metrics = EnsureMetrics();
  obs::Counter& load_ops = metrics.GetCounter("node.load.ops");
  load_ops.Inc(load_ops_total_ - load_ops.value());
  metrics.GetGauge("node.store.capacity_bytes").Set(static_cast<double>(store_.capacity()));
  metrics.GetGauge("node.store.used_bytes").Set(static_cast<double>(store_.used()));
  metrics.GetGauge("node.store.replicas").Set(static_cast<double>(store_.replica_count()));
  metrics.GetGauge("node.store.diverted").Set(static_cast<double>(store_.diverted_count()));
  metrics.GetGauge("node.store.pointers").Set(static_cast<double>(store_.pointers().size()));
  if (cache_ != nullptr) {
    // Counter deltas accumulated on the lookup hot path land here, just
    // before any snapshot reads the registry.
    cache_->SyncBoundMetrics();
    metrics.GetGauge("node.cache.used_bytes").Set(static_cast<double>(cache_->used()));
    metrics.GetGauge("node.cache.entries").Set(static_cast<double>(cache_->count()));
  }
}

bool PastNode::WouldAcceptPrimary(uint64_t size) const {
  return config_.policy.AcceptPrimary(size, store_.free_bytes());
}

bool PastNode::WouldAcceptDiverted(uint64_t size) const {
  return config_.policy.AcceptDiverted(size, store_.free_bytes());
}

bool PastNode::StoreReplica(const FileId& id, ReplicaKind kind, uint64_t size,
                            FileCertificateRef certificate, FileContentRef content) {
  if (cache_ != nullptr) {
    // The incoming replica displaces any cached copy of the same file and
    // evicts enough cached content to make room (section 4).
    cache_->Remove(id);
    if (size <= store_.free_bytes() && store_.free_bytes() - size < cache_->used()) {
      cache_->ShrinkToBudget(store_.free_bytes() - size);
    }
  }
  return store_.StoreReplica(id, kind, size, std::move(certificate), std::move(content));
}

std::optional<uint64_t> PastNode::RemoveReplica(const FileId& id) {
  return store_.RemoveReplica(id);
}

void PastNode::CacheFile(const FileId& id, uint64_t size, FileContentRef content) {
  if (cache_ != nullptr && !store_.HasReplica(id)) {
    cache_->Insert(id, size, store_.free_bytes(), std::move(content));
  }
}

StoreReceipt PastNode::MakeStoreReceipt(const FileId& id) {
  StoreReceipt receipt;
  receipt.file_id = id;
  receipt.storing_node = id_;
  receipt.node_key = card_.public_key();
  receipt.signature = card_.Sign(receipt.SignedDigest());
  return receipt;
}

ReclaimReceipt PastNode::MakeReclaimReceipt(const FileId& id, uint64_t bytes) {
  ReclaimReceipt receipt;
  receipt.file_id = id;
  receipt.storing_node = id_;
  receipt.reclaimed_bytes = bytes;
  receipt.node_key = card_.public_key();
  receipt.signature = card_.Sign(receipt.SignedDigest());
  return receipt;
}

}  // namespace past
