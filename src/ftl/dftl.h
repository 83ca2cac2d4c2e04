#ifndef POSTBLOCK_FTL_DFTL_H_
#define POSTBLOCK_FTL_DFTL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "ftl/ftl.h"
#include "ftl/page_ftl.h"
#include "sim/inplace_callback.h"
#include "ssd/controller.h"

namespace postblock::ftl {

/// DFTL (Gupta, Kim, Urgaonkar — ASPLOS'09, the paper's reference [10]):
/// full page-level mapping whose table lives on flash, with a small
/// demand-loaded Cached Mapping Table (CMT) in controller SRAM. The
/// global translation directory stays resident.
///
/// The paper cites DFTL as the second mechanism (after safe write
/// buffers) that makes random writes cheap on modern SSDs without
/// page-map-sized RAM. The cost model here is faithful: a CMT miss
/// issues a real timed flash read of the translation page, and evicting
/// a dirty CMT entry issues a real timed flash program — so map traffic
/// shares channels/LUNs with data traffic and inflates WA.
///
/// Implementation note: data and translation pages both flow through an
/// internal PageFtl whose logical space is extended by one LBA per
/// translation page; the in-RAM map of that PageFtl plays the role of
/// DFTL's resident global translation directory.
class Dftl : public Ftl {
 public:
  explicit Dftl(ssd::Controller* controller);

  Dftl(const Dftl&) = delete;
  Dftl& operator=(const Dftl&) = delete;

  void Write(Lba lba, std::uint64_t token, WriteCallback cb,
             trace::Ctx ctx = {}) override;
  void Read(Lba lba, ReadCallback cb, trace::Ctx ctx = {}) override;
  void Trim(Lba lba, WriteCallback cb, trace::Ctx ctx = {}) override;
  std::uint64_t user_pages() const override { return user_pages_; }
  const Counters& counters() const override { return counters_; }
  double WriteAmplification() const override;
  void RegisterMetrics(metrics::MetricRegistry* m) override;

  /// CMT occupancy (tests).
  std::size_t cached_translation_pages() const { return cmt_.size(); }

  /// Test hooks: the internal PageFtl holding data + translation pages,
  /// and the logical LBA of translation page `tp` within it (lets fault
  /// tests target the flash copy of a translation page).
  PageFtl* base() { return base_.get(); }
  Lba translation_lba(std::uint64_t tp) const { return MapLba(tp); }

 private:
  struct CmtEntry {
    std::list<std::uint64_t>::iterator lru_pos;
    bool dirty = false;
  };

  std::uint64_t TpOf(Lba lba) const { return lba / entries_per_tp_; }
  Lba MapLba(std::uint64_t tp) const { return user_pages_ + tp; }

  /// Ensures tp is CMT-resident (possibly evicting + fetching with real
  /// flash IO), then runs `then`.
  void EnsureCached(std::uint64_t tp, bool make_dirty,
                    sim::InplaceCallback then);
  void FinishFetch(std::uint64_t tp);

  ssd::Controller* controller_;
  std::uint64_t user_pages_;
  std::uint64_t tp_count_;
  std::uint32_t entries_per_tp_;
  std::uint32_t cmt_capacity_;
  std::unique_ptr<PageFtl> base_;

  std::unordered_map<std::uint64_t, CmtEntry> cmt_;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::vector<bool> tp_persisted_;
  /// Ops waiting on an in-flight fetch of the same translation page.
  struct FetchState {
    std::vector<sim::InplaceCallback> waiters;
    bool dirty = false;
  };
  std::unordered_map<std::uint64_t, FetchState> fetch_waiters_;

  Counters counters_;
};

}  // namespace postblock::ftl

#endif  // POSTBLOCK_FTL_DFTL_H_
