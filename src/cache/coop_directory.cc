#include "src/cache/coop_directory.h"

#include <algorithm>

namespace past {

void CoopDirectory::Advertise(const NodeId& owner, const FileId& file, const NodeId& holder) {
  auto [it, added] = dir_[owner].try_emplace(file, holder);
  if (added) {
    ++size_;
  } else if (it->second == holder) {
    return;  // already advertised
  } else {
    // Displace the previous holder's pointer (its copy may still exist, but
    // one broker tracks one holder per file).
    auto ad = ads_.find(it->second);
    if (ad != ads_.end()) {
      ad->second.erase(file);
      if (ad->second.empty()) {
        ads_.erase(ad);
      }
    }
    it->second = holder;
  }
  ads_[holder][file] = owner;
  ++advertised_;
}

void CoopDirectory::EraseDirEntry(const NodeId& owner, const FileId& file) {
  auto shard = dir_.find(owner);
  if (shard == dir_.end()) {
    return;
  }
  if (shard->second.erase(file) > 0) {
    --size_;
  }
  if (shard->second.empty()) {
    dir_.erase(shard);
  }
}

void CoopDirectory::RetractHolder(const NodeId& holder, const FileId& file) {
  auto ad = ads_.find(holder);
  if (ad == ads_.end()) {
    return;
  }
  auto entry = ad->second.find(file);
  if (entry == ad->second.end()) {
    return;
  }
  NodeId owner = entry->second;
  ad->second.erase(entry);
  if (ad->second.empty()) {
    ads_.erase(ad);
  }
  EraseDirEntry(owner, file);
  ++retracted_;
}

std::optional<NodeId> CoopDirectory::Resolve(const NodeId& owner, const FileId& file) const {
  auto shard = dir_.find(owner);
  if (shard == dir_.end()) {
    return std::nullopt;
  }
  auto entry = shard->second.find(file);
  if (entry == shard->second.end()) {
    return std::nullopt;
  }
  return entry->second;
}

void CoopDirectory::OnNodeFailed(const NodeId& node) {
  // Drop the node's broker shard (and the reverse ads of every holder it
  // tracked).
  auto shard = dir_.find(node);
  if (shard != dir_.end()) {
    for (const auto& [file, holder] : shard->second) {
      auto ad = ads_.find(holder);
      if (ad != ads_.end()) {
        ad->second.erase(file);
        if (ad->second.empty()) {
          ads_.erase(ad);
        }
      }
      --size_;
      ++retracted_;
    }
    dir_.erase(shard);
  }
  // Drop every pointer naming the node as holder.
  auto ad = ads_.find(node);
  if (ad != ads_.end()) {
    for (const auto& [file, owner] : ad->second) {
      EraseDirEntry(owner, file);
      ++retracted_;
    }
    ads_.erase(ad);
  }
}

std::vector<CoopAuditEntry> CoopDirectory::Snapshot() const {
  std::vector<CoopAuditEntry> out;
  out.reserve(size_);
  for (const auto& [owner, shard] : dir_) {
    for (const auto& [file, holder] : shard) {
      out.push_back({owner, file, holder});
    }
  }
  std::sort(out.begin(), out.end(), [](const CoopAuditEntry& a, const CoopAuditEntry& b) {
    if (a.owner != b.owner) {
      return a.owner < b.owner;
    }
    return a.file < b.file;
  });
  return out;
}

}  // namespace past
