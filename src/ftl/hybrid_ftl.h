#ifndef POSTBLOCK_FTL_HYBRID_FTL_H_
#define POSTBLOCK_FTL_HYBRID_FTL_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "ftl/ftl.h"
#include "ftl/wear_leveler.h"
#include "sim/inplace_callback.h"
#include "sim/object_pool.h"
#include "ssd/controller.h"

namespace postblock::ftl {

/// Hybrid log-block FTL (BAST-style): block-mapped data blocks plus a
/// small per-LUN pool of page-mapped *log blocks* absorbing overwrites.
/// The mid-2000s compromise between mapping-table RAM and random-write
/// cost:
///
///   - appends in order go straight to the data block (cheap),
///   - overwrites append to the vblock's log block (cheap until the log
///     fills or the pool runs dry),
///   - a full log written exactly sequentially becomes the data block
///     (*switch merge*: one erase, zero copies),
///   - otherwise a *full merge* rebuilds the block from data+log (up to
///     pages_per_block copies + two erases).
///
/// Random writes across many vblocks thrash the small log pool and
/// degenerate into full merges — the behaviour behind the paper's
/// "random writes are very costly" era.
class HybridFtl : public Ftl {
 public:
  explicit HybridFtl(ssd::Controller* controller);

  HybridFtl(const HybridFtl&) = delete;
  HybridFtl& operator=(const HybridFtl&) = delete;

  void Write(Lba lba, std::uint64_t token, WriteCallback cb,
             trace::Ctx ctx = {}) override;
  void Read(Lba lba, ReadCallback cb, trace::Ctx ctx = {}) override;
  void Trim(Lba lba, WriteCallback cb, trace::Ctx ctx = {}) override;
  std::uint64_t user_pages() const override { return user_pages_; }
  const Counters& counters() const override { return counters_; }
  double WriteAmplification() const override;

 private:
  static constexpr std::uint32_t kUnmappedPage = ~0u;

  struct LogBlock {
    flash::BlockAddr phys;
    std::uint64_t vblock = 0;
    std::uint32_t next_page = 0;
    /// offset-in-vblock -> page-in-log of the newest copy.
    std::vector<std::uint32_t> offset_map;
    bool sequential_so_far = true;  // eligible for switch merge
  };

  struct VBlockEntry {
    flash::BlockAddr data_phys;
    bool data_mapped = false;
    std::int32_t log_index = -1;  // into LunState::logs, -1 = none
  };

  struct LunState {
    std::deque<sim::InplaceCallback> ops;
    bool busy = false;
    std::vector<flash::BlockAddr> free_blocks;
    std::vector<LogBlock> logs;  // active log blocks (<= pool size)
  };

  /// One full merge in flight, in a pooled slot released when the merge
  /// completes (or fails); its flash continuations capture {this, job}.
  struct MergeJob {
    std::uint32_t lun = 0;
    std::uint64_t vblock = 0;
    bool had_data = false;
    flash::BlockAddr old_data;
    bool had_log = false;
    flash::BlockAddr old_log;
    std::vector<std::uint32_t> offset_map;
    flash::BlockAddr merged;
    std::uint32_t page = 0;
    std::uint32_t produced = 0;  // pages programmed into `merged`
    WriteCallback done;
  };

  // Firmware op queue: one op at a time per LUN. Every op ends by
  // calling OpDone(lun).
  void EnqueueOp(std::uint32_t lun, sim::InplaceCallback op);
  void RunNext(std::uint32_t lun);
  void OpDone(std::uint32_t lun);
  std::uint32_t LunOf(std::uint64_t vblock) const {
    return static_cast<std::uint32_t>(vblock % luns_.size());
  }
  /// Pops the wear-leveler's pick from the LUN's free list. Returns
  /// false when the list is empty (erase retirement can consume the
  /// reserved spares) — callers must fail the write rather than index
  /// into an empty vector.
  bool TakeFreeBlock(std::uint32_t lun, flash::BlockAddr* out);
  void ReleaseBlock(std::uint32_t lun, flash::BlockAddr addr,
                    sim::InplaceCallback done);

  void WriteToLog(std::uint32_t lun, std::uint64_t vblock,
                  std::uint32_t off, std::uint64_t token,
                  SequenceNumber seq, WriteCallback done, trace::Ctx ctx);
  /// Merges vblock's data+log into a fresh block; frees both originals.
  /// Performs a switch merge when the log is a perfect sequential image.
  void MergeVBlock(std::uint32_t lun, std::uint64_t vblock,
                   WriteCallback done);
  /// Takes a full merge one page further (or remaps and frees).
  void MergeStep(MergeJob* job);
  /// Frees the merged-away log block, then finishes the merge.
  void ReleaseMergedLog(MergeJob* job);
  /// Recycles `job`, then reports `st` to its owner.
  void FinishMerge(MergeJob* job, Status st);
  /// Picks the log block to evict when the pool is exhausted.
  std::size_t PickLogVictim(const LunState& st) const;

  ssd::Controller* controller_;
  std::uint64_t user_vblocks_;
  std::uint64_t user_pages_;
  std::vector<VBlockEntry> map_;
  std::vector<LunState> luns_;
  sim::ObjectPool<MergeJob> merges_;
  std::vector<std::uint32_t> free_wear_;  // TakeFreeBlock scratch
  WearLeveler wear_leveler_;
  SequenceNumber next_seq_ = 1;
  Counters counters_;
};

}  // namespace postblock::ftl

#endif  // POSTBLOCK_FTL_HYBRID_FTL_H_
