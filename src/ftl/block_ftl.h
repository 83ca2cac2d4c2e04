#ifndef POSTBLOCK_FTL_BLOCK_FTL_H_
#define POSTBLOCK_FTL_BLOCK_FTL_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.h"
#include "ftl/ftl.h"
#include "ftl/wear_leveler.h"
#include "sim/inplace_callback.h"
#include "sim/object_pool.h"
#include "ssd/controller.h"

namespace postblock::ftl {

/// Block-level mapping FTL — the pre-2009 SSD design the paper blames
/// for the "random writes are extremely costly" myth. An LBA's page
/// offset within its logical block is fixed; only whole blocks remap.
///
///   - Sequential writes append into the mapped physical block: cheap.
///   - Overwrites and backwards writes force a *merge*: copy every live
///     page of the block to a fresh block, erase the old one. One 4 KiB
///     random write can cost ~pages_per_block reads+programs + an erase.
///
/// Operations on one LUN run serially through a firmware queue (early
/// controllers had no per-LUN pipelining), so merges also block
/// unrelated reads on the same LUN.
class BlockFtl : public Ftl {
 public:
  explicit BlockFtl(ssd::Controller* controller);

  BlockFtl(const BlockFtl&) = delete;
  BlockFtl& operator=(const BlockFtl&) = delete;

  void Write(Lba lba, std::uint64_t token, WriteCallback cb,
             trace::Ctx ctx = {}) override;
  void Read(Lba lba, ReadCallback cb, trace::Ctx ctx = {}) override;
  void Trim(Lba lba, WriteCallback cb, trace::Ctx ctx = {}) override;
  std::uint64_t user_pages() const override { return user_pages_; }
  const Counters& counters() const override { return counters_; }
  double WriteAmplification() const override;

 private:
  struct VBlockEntry {
    flash::BlockAddr phys;
    bool mapped = false;
  };
  struct LunState {
    std::deque<sim::InplaceCallback> ops;
    bool busy = false;
    std::vector<flash::BlockAddr> free_blocks;
  };

  /// One copy-on-write merge in flight, in a pooled slot released when
  /// the merge completes (or fails); its flash continuations capture
  /// {this, job}.
  struct MergeJob {
    std::uint32_t lun = 0;
    std::uint64_t vblock = 0;
    std::uint64_t new_off = 0;
    std::uint64_t token = 0;
    SequenceNumber seq = 0;
    flash::BlockAddr old_phys;
    bool had_old = false;
    flash::BlockAddr new_phys;
    std::uint32_t page = 0;  // next page of the walk
    WriteCallback done;
    trace::Ctx ctx;
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
  /// over-provisioned spares) — callers must fail the write rather than
  /// index into an empty vector.
  bool TakeFreeBlock(std::uint32_t lun, flash::BlockAddr* out);

  // The merge engine: builds a fresh physical block containing the old
  // block's live pages plus (optionally) one new page at `new_off`.
  void Merge(std::uint32_t lun, std::uint64_t vblock,
             std::uint64_t new_off_or_npos, std::uint64_t token,
             SequenceNumber seq, WriteCallback done, trace::Ctx ctx);
  /// Takes the merge walk one page further (or remaps and erases).
  void MergeStep(MergeJob* job);
  void OnMergeProgram(MergeJob* job, Status st);
  /// Recycles `job`, then reports `st` to its owner.
  void FinishMerge(MergeJob* job, Status st);

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

  static constexpr std::uint64_t kNoNewPage = ~0ull;
};

}  // namespace postblock::ftl

#endif  // POSTBLOCK_FTL_BLOCK_FTL_H_
