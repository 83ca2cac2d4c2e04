#ifndef POSTBLOCK_DB_BUFFER_POOL_H_
#define POSTBLOCK_DB_BUFFER_POOL_H_

#include <cstdint>
#include <memory_resource>
#include <unordered_map>
#include <vector>

#include "blocklayer/block_device.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/statusor.h"
#include "db/page.h"
#include "db/page_image.h"
#include "sim/inplace_callback.h"
#include "sim/object_pool.h"
#include "sim/simulator.h"

namespace postblock::db {

/// One cached page frame. Contents are raw bytes; use PageView.
struct Frame {
  PageId id = kInvalidPageId;
  std::vector<std::uint8_t> bytes;
  int pins = 0;
  bool dirty = false;
};

/// Page cache over a block device, with LRU eviction and asynchronous
/// miss handling.
///
/// Operated in *no-steal* mode (the default): dirty frames are never
/// written back by eviction, only by explicit FlushPage/FlushAll at
/// commit/checkpoint time. Together with the storage manager's
/// deferred-update policy this keeps the on-device tree exactly at the
/// last checkpoint, which is what makes logical WAL redo sound (see
/// DESIGN.md). Steal mode exists for IO-pattern experiments.
///
/// The pool is a fixed array of `frames` frames whose page buffers are
/// allocated once, at construction. Page ids are dense (below the
/// device's block count), so a vector maps each id to its frame; the
/// LRU list is intrusive (a touch is a splice). A pin, hit or miss,
/// allocates nothing.
class BufferPool {
 public:
  using PinCallback = sim::InplaceFunction<void(StatusOr<Frame*>)>;
  using StatusCb = sim::InplaceFunction<void(Status)>;

  BufferPool(sim::Simulator* sim, blocklayer::BlockDevice* device,
             PageImageStore* images, std::size_t frames,
             bool allow_steal = false);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins a page, loading it from the device on a miss. The frame stays
  /// resident until the matching Unpin.
  void Pin(PageId id, PinCallback cb);

  /// Releases a pin; `dirty` marks the frame modified.
  void Unpin(PageId id, bool dirty);

  /// Marks a resident frame modified without changing its pin count.
  void MarkDirty(PageId id) {
    if (Frame* f = Resident(id)) f->dirty = true;
  }

  /// Writes one dirty frame back (no-op if clean or absent).
  void FlushPage(PageId id, StatusCb cb);

  /// Writes every dirty frame back; fires when all are durable (plus a
  /// device flush barrier).
  void FlushAll(StatusCb cb);

  /// Drops every clean, unpinned frame (post-recovery cache reset).
  void InvalidateClean();

  /// Simulates power loss: every frame, pin, pending load and waiter is
  /// gone, and no callback of an op in flight runs (the lower layers'
  /// epoch guards keep stale completions from reaching this pool, and
  /// the pool's own guard drops any that do).
  void PowerCycle();

  /// Resident dirty frames, into `out` (cleared first) — for externally
  /// orchestrated checkpoints (e.g. the storage manager's atomic-write
  /// checkpoint).
  void DirtyFrames(std::vector<Frame*>* out);
  /// Marks a frame clean after such a checkpoint persisted it.
  void MarkClean(PageId id) {
    if (Frame* f = Resident(id)) f->dirty = false;
  }

  std::size_t resident() const { return order_.size(); }
  std::size_t dirty_count() const;
  const Counters& counters() const { return counters_; }

 private:
  static constexpr std::uint32_t kNil = ~0u;

  /// A frame plus its place in the pool: the intrusive LRU links, and
  /// the pins waiting on its load while it is in flight.
  struct Slot {
    Frame frame;
    bool loading = false;
    std::uint32_t prev = kNil;  // toward the most recent
    std::uint32_t next = kNil;  // toward the least recent
    std::vector<PinCallback> waiters;
  };
  /// One FlushPage in flight, pooled; its write's completion captures
  /// {this, op, epoch}.
  struct FlushOp {
    PageId id = kInvalidPageId;
    StatusCb cb;
  };
  /// One FlushAll in flight: its page flushes, then the barrier.
  struct FlushAllOp {
    std::size_t remaining = 0;
    Status first_error;
    StatusCb cb;
  };

  /// The resident frame holding `id`, or null (absent or still loading).
  Frame* Resident(PageId id) {
    if (id >= slot_of_.size()) return nullptr;
    const std::uint32_t s = slot_of_[id];
    return s == kNil || slots_[s].loading ? nullptr : &slots_[s].frame;
  }
  void LoadFrame(PageId id, std::uint32_t s);
  void OnLoaded(std::uint32_t s, const blocklayer::IoResult& res);
  bool EvictOne();
  /// Makes `s` the most recently used frame.
  void Touch(std::uint32_t s);
  void Unlink(std::uint32_t s);
  /// Returns a resident frame's slot to the free list.
  void Drop(std::uint32_t s);
  /// Ends a FlushAll: on success, the device flush barrier, then `cb`.
  void FlushBarrier(FlushAllOp* op, const Status& st);
  void FinishFlushAll(FlushAllOp* op, const Status& st);

  sim::Simulator* sim_;
  blocklayer::BlockDevice* device_;
  PageImageStore* images_;
  bool allow_steal_;
  /// Bumped by PowerCycle: continuations of an older epoch are dropped.
  std::uint64_t epoch_ = 0;

  std::vector<Slot> slots_;  // fixed size: frame addresses are stable
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> slot_of_;  // page id -> slot (kNil)
  std::uint32_t lru_head_ = kNil;       // most recent
  std::uint32_t lru_tail_ = kNil;       // least recent
  /// Scratch for a load's waiters while they run (swapped with the
  /// slot's list, so both keep their buffers).
  std::vector<PinCallback> running_waiters_;

  /// Resident pages in the iteration order of a hash map keyed by page
  /// id, fed the same inserts and erases. FlushAll and DirtyFrames walk
  /// dirty frames in this order, and the classic checkpoint's write
  /// order — so every classic-wiring schedule — depends on it. Its nodes
  /// recycle through the pool resource, so it allocates nothing once
  /// warm.
  std::pmr::unsynchronized_pool_resource order_nodes_;
  std::pmr::unordered_map<PageId, std::uint32_t> order_{&order_nodes_};

  sim::ObjectPool<FlushOp> flushes_;
  sim::ObjectPool<FlushAllOp> flush_alls_;
  std::vector<PageId> flush_ids_;  // FlushAll scratch
  Counters counters_;
};

}  // namespace postblock::db

#endif  // POSTBLOCK_DB_BUFFER_POOL_H_
