#include "src/cache/gds_policy.h"

#include <algorithm>

namespace past {

void GdsPolicy::Enqueue(const FileId& id, uint64_t size) {
  double h = inflation_ + cost_ / std::max<double>(1.0, static_cast<double>(size));
  queue_.Upsert(id, h);
}

void GdsPolicy::OnInsert(const FileId& id, uint64_t size) { Enqueue(id, size); }

void GdsPolicy::OnHit(const FileId& id, uint64_t size) { Enqueue(id, size); }

void GdsPolicy::OnRemove(const FileId& id) { queue_.Erase(id); }

std::optional<FileId> GdsPolicy::EvictVictim() {
  if (queue_.empty()) {
    return std::nullopt;
  }
  auto victim = queue_.Pop();
  inflation_ = victim.key;  // L := H_victim
  return victim.id;
}

}  // namespace past
