#include "src/cache/file_cache.h"

namespace past {

FileCache::FileCache(std::unique_ptr<EvictionPolicy> policy, double c_fraction,
                     double insertion_cost_cap)
    : policy_(std::move(policy)),
      c_fraction_(c_fraction),
      insertion_cost_cap_(insertion_cost_cap) {}

void FileCache::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metric_hits_ = metric_misses_ = metric_insertions_ = metric_evictions_ = nullptr;
    return;
  }
  metric_hits_ = &registry->GetCounter("node.cache.hits");
  metric_misses_ = &registry->GetCounter("node.cache.misses");
  metric_insertions_ = &registry->GetCounter("node.cache.insertions");
  metric_evictions_ = &registry->GetCounter("node.cache.evictions");
  synced_hits_ = synced_misses_ = synced_insertions_ = synced_evictions_ = 0;
  SyncBoundMetrics();
}

void FileCache::SyncBoundMetrics() const {
  if (metric_hits_ == nullptr) {
    return;
  }
  metric_hits_->Inc(hits_ - synced_hits_);
  metric_misses_->Inc(misses_ - synced_misses_);
  metric_insertions_->Inc(insertions_ - synced_insertions_);
  metric_evictions_->Inc(evictions_ - synced_evictions_);
  synced_hits_ = hits_;
  synced_misses_ = misses_;
  synced_insertions_ = insertions_;
  synced_evictions_ = evictions_;
}

void FileCache::EvictEntry(const FileId& id) {
  const Entry* entry = entries_.Find(id);
  if (entry != nullptr) {
    used_ -= entry->size;
    entries_.Erase(id);
    ++evictions_;
  }
}

bool FileCache::Insert(const FileId& id, uint64_t size, uint64_t budget, ContentRef content) {
  if (entries_.Contains(id)) {
    return false;  // already cached
  }
  // Admission rule: size must be less than c * current cache size, where the
  // cache size is the portion of the disk not used by replicas.
  if (size == 0 || static_cast<double>(size) >= c_fraction_ * static_cast<double>(budget)) {
    return false;
  }
  // Insertion-cost cap (flash-crowd guard): refuse an admission that would
  // have to evict more than the configured fraction of the budget, so a
  // burst of requests for one hot file cannot churn the whole cache. The
  // check runs before any eviction so a refused insert leaves the cache
  // untouched.
  if (insertion_cost_cap_ > 0.0) {
    uint64_t need = used_ + size > budget ? used_ + size - budget : 0;
    if (static_cast<double>(need) > insertion_cost_cap_ * static_cast<double>(budget)) {
      return false;
    }
  }
  // Make room.
  while (used_ + size > budget) {
    auto victim = policy_->EvictVictim();
    if (!victim) {
      return false;
    }
    EvictEntry(*victim);
  }
  entries_.InsertOrAssign(id, Entry{size, std::move(content)});
  used_ += size;
  policy_->OnInsert(id, size);
  ++insertions_;
  return true;
}

bool FileCache::Lookup(const FileId& id, bool touch) {
  const Entry* entry = entries_.Find(id);
  if (entry == nullptr) {
    ++misses_;
    return false;
  }
  if (touch) {
    policy_->OnHit(id, entry->size);
  }
  ++hits_;
  return true;
}

bool FileCache::Remove(const FileId& id) {
  const Entry* entry = entries_.Find(id);
  if (entry == nullptr) {
    return false;
  }
  used_ -= entry->size;
  entries_.Erase(id);
  policy_->OnRemove(id);
  return true;
}

std::vector<std::pair<FileId, uint64_t>> FileCache::Entries() const {
  std::vector<std::pair<FileId, uint64_t>> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    out.emplace_back(id, entry.size);
  }
  return out;
}

std::optional<uint64_t> FileCache::SizeOf(const FileId& id) const {
  const Entry* entry = entries_.Find(id);
  if (entry == nullptr) {
    return std::nullopt;
  }
  return entry->size;
}

FileCache::ContentRef FileCache::ContentOf(const FileId& id) const {
  const Entry* entry = entries_.Find(id);
  return entry == nullptr ? nullptr : entry->content;
}

void FileCache::ShrinkToBudget(uint64_t budget) {
  while (used_ > budget) {
    auto victim = policy_->EvictVictim();
    if (!victim) {
      return;
    }
    EvictEntry(*victim);
  }
}

}  // namespace past
