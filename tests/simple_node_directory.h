// SimpleNodeDirectory: a NodeDirectory for unit tests of a single node's
// routing state, with no PastryNetwork around it.
#ifndef TESTS_SIMPLE_NODE_DIRECTORY_H_
#define TESTS_SIMPLE_NODE_DIRECTORY_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/flat_table.h"
#include "src/common/node_id.h"
#include "src/pastry/directory.h"

namespace past {

// A self-contained directory for standalone PastryNode instances in unit
// tests: interns into its own table, everything defaults to alive, and
// the distance metric is an optional id-keyed std::function (the thunk
// resolves both indices before calling it).
class SimpleNodeDirectory {
 public:
  using DistanceFn = std::function<double(const NodeId& a, const NodeId& b)>;

  SimpleNodeDirectory() {
    dir_.ctx = this;
    dir_.intern = &InternThunk;
    dir_.find = &FindThunk;
    dir_.resolve = &ResolveThunk;
    dir_.alive = &AliveThunk;
    dir_.distance = nullptr;
  }
  explicit SimpleNodeDirectory(DistanceFn distance) : SimpleNodeDirectory() {
    distance_ = std::move(distance);
    dir_.distance = &DistanceThunk;
  }

  const NodeDirectory* view() const { return &dir_; }

  uint32_t Intern(const NodeId& id) {
    auto [slot, inserted] = index_.TryEmplace(id, static_cast<uint32_t>(ids_.size()));
    if (inserted) {
      ids_.push_back(id);
      alive_.push_back(1);
    }
    return *slot;
  }

  void SetAlive(const NodeId& id, bool alive) { alive_[Intern(id)] = alive ? 1 : 0; }

 private:
  static uint32_t InternThunk(void* ctx, const NodeId& id) {
    return static_cast<SimpleNodeDirectory*>(ctx)->Intern(id);
  }
  static uint32_t FindThunk(void* ctx, const NodeId& id) {
    const uint32_t* idx = static_cast<SimpleNodeDirectory*>(ctx)->index_.Find(id);
    return idx == nullptr ? kInvalidNodeIndex : *idx;
  }
  static const NodeId& ResolveThunk(void* ctx, uint32_t index) {
    return static_cast<SimpleNodeDirectory*>(ctx)->ids_[index];
  }
  static bool AliveThunk(void* ctx, uint32_t index) {
    return static_cast<SimpleNodeDirectory*>(ctx)->alive_[index] != 0;
  }
  static double DistanceThunk(void* ctx, uint32_t a, uint32_t b) {
    auto* self = static_cast<SimpleNodeDirectory*>(ctx);
    return self->distance_(self->ids_[a], self->ids_[b]);
  }

  NodeDirectory dir_;
  FlatTable<NodeId, uint32_t, NodeIdHash> index_;
  std::vector<NodeId> ids_;
  std::vector<uint8_t> alive_;
  DistanceFn distance_;
};

}  // namespace past

#endif  // TESTS_SIMPLE_NODE_DIRECTORY_H_
