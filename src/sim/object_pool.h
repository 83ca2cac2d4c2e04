#ifndef POSTBLOCK_SIM_OBJECT_POOL_H_
#define POSTBLOCK_SIM_OBJECT_POOL_H_

#include <memory>
#include <vector>

namespace postblock::sim {

/// Free-list pool of per-op records, owned by the layer that issues the
/// ops. Records are created on demand and recycled on release, never
/// freed before the pool: the pool (and its free list) grows to the
/// high-water mark of ops in flight and is never capped, so steady
/// state allocates nothing. Records are individually heap-allocated, so
/// a pointer stays valid across later acquisitions — continuations
/// capture `{owner, record*}` and stay in InplaceFunction's inline
/// buffer. Single-threaded, like the simulator shard that owns it.
template <typename T>
class ObjectPool {
 public:
  ObjectPool() = default;
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  /// A default-state record.
  T* Acquire() {
    if (!free_.empty()) {
      T* p = free_.back();
      free_.pop_back();
      return p;
    }
    all_.push_back(std::make_unique<T>());
    return all_.back().get();
  }

  /// Resets `p` to its default state (dropping any callback it holds)
  /// and returns it to the free list.
  void Release(T* p) {
    *p = T{};
    free_.push_back(p);
  }

  /// Returns `p` to the free list as it is, for records the caller has
  /// already emptied but whose resources are worth keeping: a cleared
  /// vector keeps its capacity, where Release would drop it.
  void Recycle(T* p) { free_.push_back(p); }

  /// Recycles every record at once — for owners whose in-flight ops all
  /// died together (power loss) and will never touch their records.
  void ReleaseAll() {
    free_.clear();
    for (auto& p : all_) {
      *p = T{};
      free_.push_back(p.get());
    }
  }

 private:
  std::vector<std::unique_ptr<T>> all_;
  std::vector<T*> free_;
};

}  // namespace postblock::sim

#endif  // POSTBLOCK_SIM_OBJECT_POOL_H_
