// Arena: a size-class pool allocator over large slabs.
//
// At simulation scales the node population dominates the heap: every node
// owns a handful of small tables (routing rows, leaf arrays, store buckets),
// and with a general-purpose allocator each of those is its own malloc with
// its own header, its own free-list traffic, and its own cache line. One
// million nodes means tens of millions of 64-to-512-byte objects — the
// allocator metadata alone rivals the payload. The arena replaces all of
// that with a few thousand megabyte-sized slabs carved by a bump pointer,
// with freed blocks recycled through per-size-class free lists.
//
// Design:
//   - Allocation rounds the request up to a size class: multiples of 16
//     bytes up to 1 KiB, then powers of two up to half a slab. Requests
//     larger than half a slab fall through to operator new and are tracked
//     individually.
//   - Deallocate() pushes the block onto its class free list (the link is
//     stored in the dead block itself); the next same-class Allocate() pops
//     it. Nothing is ever returned to the OS before the arena dies.
//   - All blocks are 16-byte aligned (slabs come 16-aligned from operator
//     new, classes are multiples of 16).
//   - NOT thread-safe. The simulation mutates node state only in its serial
//     phases; parallel phases are read-only by contract.
//
// The arena never runs destructors: callers own object lifetime and call
// Destroy()/Deallocate() themselves (or let the slab die wholesale for
// trivially-destructible state).
#ifndef SRC_COMMON_ARENA_H_
#define SRC_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace past {

class Arena {
 public:
  static constexpr size_t kAlignment = 16;
  static constexpr size_t kDefaultSlabBytes = size_t{1} << 20;  // 1 MiB

  explicit Arena(size_t slab_bytes = kDefaultSlabBytes)
      : slab_bytes_(slab_bytes < kMinSlabBytes ? kMinSlabBytes : slab_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    for (char* slab : slabs_) {
      ::operator delete(slab, std::align_val_t{kAlignment});
    }
    for (auto& [ptr, bytes] : large_) {
      ::operator delete(ptr, std::align_val_t{kAlignment});
    }
  }

  void* Allocate(size_t bytes) {
    if (bytes == 0) {
      bytes = 1;
    }
#ifdef PAST_ARENA_PASSTHROUGH
    // Debug mode: every block is its own heap allocation so sanitizers see
    // per-object redzones instead of one opaque slab. Never use at scale.
    return ::operator new(bytes, std::align_val_t{kAlignment});
#endif
    size_t cls = ClassFor(bytes);
    if (cls == kNoClass) {
      void* p = ::operator new(bytes, std::align_val_t{kAlignment});
      large_.push_back({p, bytes});
      bytes_large_ += bytes;
      return p;
    }
    if (free_lists_[cls] != nullptr) {
      void* p = free_lists_[cls];
      free_lists_[cls] = *static_cast<void**>(p);
      return p;
    }
    size_t want = ClassBytes(cls);
    if (slab_bytes_ - bump_used_ < want || slabs_.empty()) {
      slabs_.push_back(static_cast<char*>(::operator new(slab_bytes_, std::align_val_t{kAlignment})));
      bump_used_ = 0;
    }
    void* p = slabs_.back() + bump_used_;
    bump_used_ += want;
    return p;
  }

  // `bytes` must be the size passed to the matching Allocate().
  void Deallocate(void* p, size_t bytes) {
    if (p == nullptr) {
      return;
    }
    if (bytes == 0) {
      bytes = 1;
    }
#ifdef PAST_ARENA_PASSTHROUGH
    ::operator delete(p, std::align_val_t{kAlignment});
    return;
#endif
    size_t cls = ClassFor(bytes);
    if (cls == kNoClass) {
      for (size_t i = 0; i < large_.size(); ++i) {
        if (large_[i].first == p) {
          bytes_large_ -= large_[i].second;
          large_[i] = large_.back();
          large_.pop_back();
          ::operator delete(p, std::align_val_t{kAlignment});
          return;
        }
      }
      return;  // not ours; ignore rather than corrupt
    }
    *static_cast<void**>(p) = free_lists_[cls];
    free_lists_[cls] = p;
  }

  template <typename T, typename... Args>
  T* Create(Args&&... args) {
    static_assert(alignof(T) <= kAlignment, "over-aligned type");
    void* p = Allocate(sizeof(T));
    return new (p) T(std::forward<Args>(args)...);
  }

  template <typename T>
  void Destroy(T* p) {
    if (p == nullptr) {
      return;
    }
    p->~T();
    Deallocate(p, sizeof(T));
  }

  // --- footprint introspection (scale dumps) ---

  size_t bytes_reserved() const { return slabs_.size() * slab_bytes_ + bytes_large_; }

 private:
  static constexpr size_t kMinSlabBytes = size_t{1} << 12;
  static constexpr size_t kSmallLimit = 1024;          // 16-byte classes below this
  static constexpr size_t kSmallClasses = kSmallLimit / 16;  // 64
  static constexpr size_t kPow2Classes = 16;           // 2 KiB .. 64 MiB
  static constexpr size_t kClassCount = kSmallClasses + kPow2Classes;
  static constexpr size_t kNoClass = static_cast<size_t>(-1);

  size_t ClassFor(size_t bytes) const {
    if (bytes <= kSmallLimit) {
      return (bytes + 15) / 16 - 1;  // 1..16 -> 0, 17..32 -> 1, ...
    }
    if (bytes > slab_bytes_ / 2) {
      return kNoClass;
    }
    size_t cls = kSmallClasses;
    size_t cap = kSmallLimit * 2;
    while (cap < bytes) {
      cap *= 2;
      ++cls;
    }
    return cls < kClassCount ? cls : kNoClass;
  }

  static size_t ClassBytes(size_t cls) {
    if (cls < kSmallClasses) {
      return (cls + 1) * 16;
    }
    return kSmallLimit << (cls - kSmallClasses + 1);
  }

  size_t slab_bytes_;
  std::vector<char*> slabs_;
  size_t bump_used_ = 0;
  void* free_lists_[kClassCount] = {};
  std::vector<std::pair<void*, size_t>> large_;
  size_t bytes_large_ = 0;
};

}  // namespace past

#endif  // SRC_COMMON_ARENA_H_
