// IndexedHeap: the priority queue behind the cache eviction policies.
//
// A binary min-heap of (key, fileId) items in one contiguous vector. Each
// tracked file owns a small integer handle: a FlatTable maps the fileId to
// its handle, and a handle-indexed vector holds the item's current heap slot,
// which every sift move updates with one store. An entry can therefore be
// re-keyed or removed in O(log n) with a single hash probe, and no operation
// allocates per entry: a cache holding n files owns three vectors and one
// open-addressing table, not n tree nodes and n hash nodes.
//
// Items are ordered lexicographically by (key, id), as std::pair orders
// them. Each id is present at most once, so this is a strict total order:
// the root is the unique minimum, and ties on the key fall to the smaller
// fileId.
#ifndef SRC_CACHE_INDEXED_HEAP_H_
#define SRC_CACHE_INDEXED_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/file_id.h"
#include "src/common/flat_table.h"

namespace past {

template <typename Key>
class IndexedHeap {
 public:
  struct Item {
    Key key;
    FileId id;
    uint32_t handle;
  };

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  // Inserts `id` under `key`, or re-keys it in place if already present.
  void Upsert(const FileId& id, Key key) {
    const uint32_t fresh =
        free_handles_.empty() ? static_cast<uint32_t>(slot_.size()) : free_handles_.back();
    auto [handle, inserted] = handle_of_.TryEmplace(id, fresh);
    if (inserted) {
      if (free_handles_.empty()) {
        slot_.push_back(0);
      } else {
        free_handles_.pop_back();
      }
      slot_[fresh] = static_cast<uint32_t>(items_.size());
      items_.push_back({key, id, fresh});
      SiftUp(items_.size() - 1);
      return;
    }
    const size_t i = slot_[*handle];
    const Item item{key, id, *handle};
    const bool up = Less(item, items_[i]);
    items_[i] = item;
    if (up) {
      SiftUp(i);
    } else {
      SiftDown(i);
    }
  }

  // Removes `id`; returns false if it was not present.
  bool Erase(const FileId& id) {
    const uint32_t* handle = handle_of_.Find(id);
    if (handle == nullptr) {
      return false;
    }
    const uint32_t h = *handle;
    handle_of_.Erase(id);
    free_handles_.push_back(h);
    RemoveAt(slot_[h]);
    return true;
  }

  // Removes and returns the minimum item; the heap must not be empty.
  Item Pop() {
    const Item root = items_.front();
    handle_of_.Erase(root.id);
    free_handles_.push_back(root.handle);
    RemoveAt(0);
    return root;
  }

 private:
  static bool Less(const Item& a, const Item& b) {
    return a.key < b.key || (!(b.key < a.key) && a.id < b.id);
  }

  // Fills slot `i`, whose item has left the heap, with the last item and
  // restores the heap order around it.
  void RemoveAt(size_t i) {
    const Item last = items_.back();
    items_.pop_back();
    if (i == items_.size()) {
      return;
    }
    const bool up = i > 0 && Less(last, items_[(i - 1) / 2]);
    Place(i, last);
    if (up) {
      SiftUp(i);
    } else {
      SiftDown(i);
    }
  }

  void Place(size_t i, const Item& item) {
    items_[i] = item;
    slot_[item.handle] = static_cast<uint32_t>(i);
  }

  // Moves the item at `i` toward the root past every larger parent, shifting
  // each parent down into the hole.
  void SiftUp(size_t i) {
    const Item item = items_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!Less(item, items_[parent])) {
        break;
      }
      Place(i, items_[parent]);
      i = parent;
    }
    Place(i, item);
  }

  // Moves the item at `i` toward the leaves past every smaller child.
  void SiftDown(size_t i) {
    const Item item = items_[i];
    const size_t n = items_.size();
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= n) {
        break;
      }
      if (child + 1 < n && Less(items_[child + 1], items_[child])) {
        ++child;
      }
      if (!Less(items_[child], item)) {
        break;
      }
      Place(i, items_[child]);
      i = child;
    }
    Place(i, item);
  }

  std::vector<Item> items_;             // the heap
  std::vector<uint32_t> slot_;          // handle -> index into items_
  std::vector<uint32_t> free_handles_;  // handles of erased items, for reuse
  FlatTable<FileId, uint32_t, FileIdHash> handle_of_;
};

}  // namespace past

#endif  // SRC_CACHE_INDEXED_HEAP_H_
