#include "src/storage/node_store.h"

#include "src/storage/wal.h"

namespace past {

NodeStore::NodeStore(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

NodeStore::~NodeStore() = default;

bool NodeStore::StoreReplica(const FileId& id, ReplicaKind kind, uint64_t size,
                             FileCertificateRef certificate, FileContentRef content) {
  if (size > free_bytes()) {
    return false;
  }
  auto [entry, inserted] = replicas_.TryEmplace(id, ReplicaEntry{size, kind});
  if (!inserted) {
    return false;  // fileId collision: later insert is rejected (section 2)
  }
  if (certificate != nullptr || content != nullptr) {
    ReplicaPayload payload{std::move(certificate), std::move(content)};
    if (free_payloads_.empty()) {
      entry->payload = static_cast<uint32_t>(payload_slab_.size());
      payload_slab_.push_back(std::move(payload));
    } else {
      entry->payload = free_payloads_.back();
      free_payloads_.pop_back();
      payload_slab_[entry->payload] = std::move(payload);
    }
  }
  used_ += size;
  if (kind == ReplicaKind::kPrimary) {
    ++primary_count_;
  }
  if (journal_ != nullptr) {
    journal_->AppendInsert(id, *entry, PayloadOf(*entry));
    MaybeCompact();
  }
  return true;
}

bool NodeStore::HasReplica(const FileId& id) const { return replicas_.Contains(id); }

const ReplicaEntry* NodeStore::GetReplica(const FileId& id) const { return replicas_.Find(id); }

FileCertificateRef NodeStore::GetCertificate(const FileId& id) const {
  const ReplicaEntry* entry = replicas_.Find(id);
  const ReplicaPayload* payload = entry == nullptr ? nullptr : PayloadOf(*entry);
  return payload == nullptr ? nullptr : payload->certificate;
}

FileContentRef NodeStore::GetContent(const FileId& id) const {
  const ReplicaEntry* entry = replicas_.Find(id);
  const ReplicaPayload* payload = entry == nullptr ? nullptr : PayloadOf(*entry);
  return payload == nullptr ? nullptr : payload->content;
}

std::optional<uint64_t> NodeStore::RemoveReplica(const FileId& id) {
  const ReplicaEntry* entry = replicas_.Find(id);
  if (entry == nullptr) {
    return std::nullopt;
  }
  uint64_t size = entry->size;
  used_ -= size;
  if (entry->kind == ReplicaKind::kPrimary) {
    --primary_count_;
  }
  // The replica's insert record dies with it; size it before the refs go.
  uint64_t insert_record_bytes =
      journal_ != nullptr ? NodeStoreJournal::InsertRecordBytes(PayloadOf(*entry)) : 0;
  ReleasePayload(*entry);
  replicas_.Erase(id);
  if (journal_ != nullptr) {
    journal_->AppendRemove(id, insert_record_bytes);
    MaybeCompact();
  }
  return size;
}

bool NodeStore::SetReplicaKind(const FileId& id, ReplicaKind kind) {
  ReplicaEntry* entry = replicas_.Find(id);
  if (entry == nullptr) {
    return false;
  }
  if (entry->kind != kind) {
    if (kind == ReplicaKind::kPrimary) {
      ++primary_count_;
    } else {
      --primary_count_;
    }
    entry->kind = kind;
    if (journal_ != nullptr) {
      journal_->AppendSetKind(id, kind);
      MaybeCompact();
    }
  }
  return true;
}

bool NodeStore::TestOnlyCorruptDropReplica(const FileId& id) {
  const ReplicaEntry* entry = replicas_.Find(id);
  if (entry == nullptr) {
    return false;
  }
  // Deliberately leaves used_ charging for the vanished entry.
  if (entry->kind == ReplicaKind::kPrimary) {
    --primary_count_;
  }
  ReleasePayload(*entry);
  replicas_.Erase(id);
  return true;
}

void NodeStore::InstallPointer(const FileId& id, const NodeId& holder, PointerRole role,
                               uint64_t size) {
  DiversionPointer ptr{holder, role, size};
  auto [slot, inserted] = pointers_.TryEmplace(id, ptr);
  if (!inserted) {
    *slot = ptr;
  }
  if (journal_ != nullptr) {
    journal_->AppendInstallPointer(id, ptr, /*replaced=*/!inserted);
    MaybeCompact();
  }
}

const DiversionPointer* NodeStore::GetPointer(const FileId& id) const {
  return pointers_.Find(id);
}

bool NodeStore::RemovePointer(const FileId& id) {
  if (!pointers_.Erase(id)) {
    return false;
  }
  if (journal_ != nullptr) {
    journal_->AppendRemovePointer(id);
    MaybeCompact();
  }
  return true;
}

// --- durability ---

void NodeStore::EnableDurability(StorageEnv& env, std::string dir, const DurableOptions& opts) {
  journal_ = NodeStoreJournal::Create(env, std::move(dir), opts);
}

bool NodeStore::RecoverDurable(StorageEnv& env, std::string dir, const DurableOptions& opts) {
  journal_ = NodeStoreJournal::Recover(env, std::move(dir), opts, *this);
  return !journal_->failed();
}

bool NodeStore::Commit() { return journal_ == nullptr || journal_->Commit(); }

void NodeStore::ResetForRecovery() {
  replicas_.Clear();
  payload_slab_.clear();
  free_payloads_.clear();
  pointers_.Clear();
  used_ = 0;
  primary_count_ = 0;
}

void NodeStore::ReleasePayload(const ReplicaEntry& entry) {
  if (entry.payload != ReplicaEntry::kNoPayload) {
    payload_slab_[entry.payload] = ReplicaPayload{};
    free_payloads_.push_back(entry.payload);
  }
}

void NodeStore::MaybeCompact() {
  if (journal_->ShouldCompact()) {
    journal_->Compact(*this);
  }
}

}  // namespace past
