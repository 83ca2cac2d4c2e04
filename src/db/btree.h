#ifndef POSTBLOCK_DB_BTREE_H_
#define POSTBLOCK_DB_BTREE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/statusor.h"
#include "db/buffer_pool.h"
#include "db/page.h"
#include "sim/inplace_callback.h"
#include "sim/object_pool.h"
#include "sim/simulator.h"

namespace postblock::db {

/// Disk-resident B+-tree (uint64 key -> uint64 value) over the buffer
/// pool. Single-pass inserts with preemptive splits; deletes drop leaf
/// entries without rebalancing (underflow tolerated — the common
/// engineering simplification); leaves are chained for range scans.
///
/// All operations are asynchronous: page misses become block-device
/// reads in simulated time, so tree traffic shares the IO stack with
/// everything else — exactly the DB workload the paper routes through
/// its redesigned storage interface.
class BTree {
 public:
  using StatusCb = sim::InplaceFunction<void(Status)>;
  using GetCb =
      sim::InplaceFunction<void(StatusOr<std::uint64_t>)>;  // NotFound
  using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  using ScanCb = sim::InplaceFunction<void(StatusOr<Pairs>)>;
  using PageAllocator = sim::InplaceFunction<PageId()>;

  BTree(sim::Simulator* sim, BufferPool* pool, PageAllocator alloc_page);

  /// Formats a fresh root leaf. The tree is unusable before Create/Open.
  void Create(StatusCb cb);
  /// Attaches to an existing tree (after recovery).
  void Open(PageId root) { root_ = root; }
  PageId root() const { return root_; }

  void Put(std::uint64_t key, std::uint64_t value, StatusCb cb);
  void Get(std::uint64_t key, GetCb cb);
  void Delete(std::uint64_t key, StatusCb cb);
  /// All pairs with lo <= key <= hi, in key order.
  void Scan(std::uint64_t lo, std::uint64_t hi, ScanCb cb);

  const Counters& counters() const { return counters_; }

  // Node capacities (exposed for tests that exercise splits).
  static constexpr std::uint32_t kLeafHeader = 16;
  static constexpr std::uint32_t kLeafCapacity =
      (kPageBytes - kLeafHeader) / 16;
  static constexpr std::uint32_t kInternalHeader = 24;
  static constexpr std::uint32_t kInternalCapacity =
      (kPageBytes - kInternalHeader) / 16;

 private:
  /// One Get or Delete, pooled: a root-to-leaf descent whose every pin
  /// captures {this, op, page}.
  struct PointOp {
    std::uint64_t key = 0;
    bool remove = false;
    GetCb get_cb;     // Get
    StatusCb del_cb;  // Delete
  };
  /// One Put, pooled: the descent plus what a split holds pinned. Every
  /// pin captures {this, op}.
  struct PutOp {
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    StatusCb cb;
    Frame* node = nullptr;     // pinned, non-full: the level being entered
    Frame* child = nullptr;    // the full child being split
    Frame* sibling = nullptr;  // the root split's new sibling
    std::uint32_t index = 0;   // node's child slot being descended into
    PageId sibling_id = kInvalidPageId;
    PageId new_root_id = kInvalidPageId;
    std::uint64_t separator = 0;
  };
  /// One range scan, pooled: a descent to the leaf holding `lo`, then a
  /// walk along the leaf chain.
  struct ScanOp {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    Pairs results;
    ScanCb cb;
  };

  void PointStep(PointOp* op, PageId id);
  void OnPointPinned(PointOp* op, PageId id, StatusOr<Frame*> f);
  void StartPut(PutOp* op);
  void OnRootPinned(PutOp* op, StatusOr<Frame*> f);
  void SplitRoot(PutOp* op);
  void OnRootSiblingPinned(PutOp* op, StatusOr<Frame*> s);
  void OnNewRootPinned(PutOp* op, StatusOr<Frame*> nr);
  /// `node` is pinned and non-full.
  void DescendPut(PutOp* op, Frame* node);
  void OnChildPinned(PutOp* op, StatusOr<Frame*> c);
  /// Preemptive split of op->child (full) under op->node, then the
  /// descent retries op->node.
  void SplitChild(PutOp* op);
  void OnChildSiblingPinned(PutOp* op, StatusOr<Frame*> s);
  void FinishPut(PutOp* op, Status st);
  void ScanDescend(ScanOp* op, PageId id);
  void ScanWalk(ScanOp* op, PageId id);
  void FinishScan(ScanOp* op, StatusOr<Pairs> result);

  sim::Simulator* sim_;
  BufferPool* pool_;
  PageAllocator alloc_page_;
  PageId root_ = kInvalidPageId;
  sim::ObjectPool<PointOp> points_;
  sim::ObjectPool<PutOp> puts_;
  sim::ObjectPool<ScanOp> scans_;
  Counters counters_;
};

}  // namespace postblock::db

#endif  // POSTBLOCK_DB_BTREE_H_
