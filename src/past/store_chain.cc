#include "src/past/store_chain.h"

#include <utility>

namespace past {

StoreChain::StoreChain(PastNetwork& net, const NodeId& root, PastNetwork::InsertPlan plan,
                       const FileId& file, uint64_t size, FileCertificateRef certificate,
                       FileContentRef content)
    : net_(net), root_(root), plan_(std::move(plan)), file_(file), size_(size),
      certificate_(std::move(certificate)), content_(std::move(content)) {}

std::optional<Message> StoreChain::NextTarget() {
  while (next_ < plan_.targets.size() && net_.storage_node(plan_.targets[next_]) == nullptr) {
    ++next_;
  }
  if (next_ == plan_.targets.size()) {
    return std::nullopt;
  }
  target_ = plan_.targets[next_++];
  stored_ = false;
  return Message{MessageType::kStoreReplica, root_, target_, file_, size_};
}

std::optional<Message> StoreChain::AtTarget() {
  PastNode* a = net_.storage_node(target_);
  if (a == nullptr) {
    return std::nullopt;
  }
  if (net_.ShouldStorePrimary(*a, size_)) {
    switch (net_.PlaceReplica(*a, file_, ReplicaKind::kPrimary, size_, certificate_, content_)) {
      case PastNetwork::PlaceOutcome::kStored:
        created_.push_back({target_, /*is_pointer=*/false});
        a->NoteServedOp();
        stored_ = true;
        return std::nullopt;
      case PastNetwork::PlaceOutcome::kNotDurable:
        // A node whose log cannot commit declines outright; it does not
        // divert a replica it could not make durable itself.
        return std::nullopt;
      case PastNetwork::PlaceOutcome::kNoRoom:
        break;
    }
  }
  if (!net_.config_.enable_replica_diversion) {
    return std::nullopt;
  }
  std::optional<NodeId> b = net_.ChooseDiversionTarget(target_, plan_.targets, file_, size_);
  if (!b) {
    return std::nullopt;
  }
  diverted_to_ = *b;
  return Message{MessageType::kDivertRequest, target_, diverted_to_, file_, size_};
}

Message StoreChain::AtDiversionTarget() {
  PastNode* b = net_.storage_node(diverted_to_);
  stored_ = b != nullptr && b->WouldAcceptDiverted(size_) &&
            net_.PlaceReplica(*b, file_, ReplicaKind::kDiverted, size_, certificate_,
                              content_) == PastNetwork::PlaceOutcome::kStored;
  if (stored_) {
    created_.push_back({diverted_to_, /*is_pointer=*/false});
    b->NoteServedOp();
  }
  return Message{MessageType::kAck, diverted_to_, target_, file_};
}

std::optional<Message> StoreChain::AtDiverter() {
  // A's pointer must be durable before its receipt: after a crash at A
  // nothing else among the k closest would reference B's copy.
  PastNode* a = net_.storage_node(target_);
  stored_ = stored_ && a != nullptr &&
            net_.PlacePointer(*a, file_, diverted_to_, PointerRole::kDiverter, size_);
  if (!stored_) {
    return std::nullopt;
  }
  created_.push_back({target_, /*is_pointer=*/true});
  if (!plan_.witness || net_.storage_node(*plan_.witness) == nullptr) {
    return std::nullopt;
  }
  return Message{MessageType::kInstallPointer, target_, *plan_.witness, file_};
}

void StoreChain::AtWitness() {
  PastNode* c = net_.storage_node(*plan_.witness);
  if (c != nullptr &&
      net_.PlacePointer(*c, file_, diverted_to_, PointerRole::kWitness, size_)) {
    created_.push_back({*plan_.witness, /*is_pointer=*/true});
  }
}

void StoreChain::Rollback() {
  for (const Created& c : created_) {
    if (PastNode* pn = net_.storage_node(c.node)) {
      if (c.is_pointer) {
        pn->store().RemovePointer(file_);
      } else {
        net_.DropReplica(*pn, file_);
      }
    }
  }
  created_.clear();
}

}  // namespace past
