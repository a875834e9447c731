#include "src/cache/lru_policy.h"

namespace past {

void LruPolicy::OnInsert(const FileId& id, uint64_t size) {
  (void)size;
  order_.Upsert(id, ++touches_);
}

void LruPolicy::OnHit(const FileId& id, uint64_t size) {
  (void)size;
  order_.Upsert(id, ++touches_);
}

void LruPolicy::OnRemove(const FileId& id) { order_.Erase(id); }

std::optional<FileId> LruPolicy::EvictVictim() {
  if (order_.empty()) {
    return std::nullopt;
  }
  return order_.Pop().id;
}

}  // namespace past
