#ifndef POSTBLOCK_FTL_APPEND_FTL_H_
#define POSTBLOCK_FTL_APPEND_FTL_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.h"
#include "ftl/ftl.h"
#include "sim/inplace_callback.h"
#include "sim/object_pool.h"
#include "ssd/controller.h"

namespace postblock::ftl {

/// The post-block "vision" FTL (FtlKind::kVisionAppend): physical
/// append with device-issued names, the device the paper's Section 3
/// argues for. The host owns placement and liveness; the device owns
/// the media rules it alone can see (erase-before-write, sequential
/// programming, wear, decay):
///
///   - No L2P. A name *is* the flattened physical page address at
///     program time; translation state is per-block counters — the
///     mapping-table DRAM crossover against a page-map FTL.
///   - Per-region append points: a host stream maps to region
///     (stream % append_regions); each region fills its own active
///     block, taking free blocks round-robin across LUNs so streams
///     keep channel parallelism without sharing erase blocks.
///   - No device-side GC. Liveness is declared by the host through
///     nameless-free; a block whose last live page dies is erased and
///     recycled (write amplification 1.0 by construction).
///   - Cooperative migration, not hidden cleaning: when host frees
///     fragment the array below the free-block watermark — or a block
///     decays past the correctable-read threshold — the device
///     relocates the live pages of the deadest block, *telling the
///     host about every move* (old name -> new name), then erases it.
///     The device never decides data is dead; it only compacts what
///     the host already killed, in the open.
///
/// The LBA vocabulary (Write/Read/Trim) completes with a typed
/// Unimplemented: this device has no logical address space to offer,
/// and silently degrading is exactly the interface rot the paper
/// indicts.
class AppendFtl : public Ftl {
 public:
  explicit AppendFtl(ssd::Controller* controller);
  ~AppendFtl() override = default;

  AppendFtl(const AppendFtl&) = delete;
  AppendFtl& operator=(const AppendFtl&) = delete;

  // --- Ftl interface (the block vocabulary — refused, typed) --------
  void Write(Lba lba, std::uint64_t token, WriteCallback cb,
             trace::Ctx ctx = {}) override;
  void Read(Lba lba, ReadCallback cb, trace::Ctx ctx = {}) override;
  void Trim(Lba lba, WriteCallback cb, trace::Ctx ctx = {}) override;
  std::uint64_t user_pages() const override;
  const Counters& counters() const override { return counters_; }
  double WriteAmplification() const override;
  std::uint64_t MappingTableBytes() const override;
  void RegisterMetrics(metrics::MetricRegistry* m) override;

  // --- The nameless vocabulary -------------------------------------
  using NameCallback = sim::InplaceFunction<void(StatusOr<std::uint64_t>)>;

  /// Appends one page into `stream`'s region. The callback delivers the
  /// device-issued name. `owner`/`owner_epoch` are persisted in the
  /// page's OOB spare area (the de-indirection back-pointer) and come
  /// back from LiveNames() after a crash; pass owner = kNamelessLba for
  /// an unstamped page.
  void NamelessWrite(std::uint64_t token, std::uint64_t owner,
                     std::uint64_t owner_epoch, std::uint8_t stream,
                     NameCallback cb, trace::Ctx ctx = {});

  /// Reads a page by name. NotFound if the name is stale (freed, or
  /// migrated — the host's migration handler already has the new name).
  void NamelessRead(std::uint64_t name, ReadCallback cb,
                    trace::Ctx ctx = {});

  /// Declares a named page dead. The page's block is erased and
  /// recycled once its last live page dies.
  void NamelessFree(std::uint64_t name, WriteCallback cb,
                    trace::Ctx ctx = {});

  /// (old name, new name) — fired synchronously as each cooperative
  /// migration / refresh relocation lands.
  using MigrationListener =
      sim::InplaceFunction<void(std::uint64_t, std::uint64_t)>;
  void SetMigrationListener(MigrationListener listener) {
    migration_listener_ = std::move(listener);
  }

  /// One live host-managed page, as the post-crash control-path scan
  /// reports it: its current name plus the OOB owner stamp.
  struct LiveName {
    std::uint64_t name = 0;
    Lba owner = 0;
    std::uint64_t owner_epoch = 0;
  };
  /// Control-path enumeration of every live page (bounded, synchronous,
  /// un-timed — the recovery analogue of PageFtl's OOB rescan; see
  /// DESIGN.md §4j for why this lives on the admin path).
  std::vector<LiveName> LiveNames() const;

  /// Power loss + reboot: in-flight programs die, append points and
  /// queued writes are dropped, per-block state is rebuilt from the
  /// array (write points and validity persist — the block-summary
  /// durability real host-managed devices provide). Fully-dead blocks
  /// found by the rebuild are queued for erase.
  Status PowerCycle();

  // --- Introspection (tests/benches) -------------------------------
  std::uint64_t live_pages() const { return live_pages_; }
  std::size_t FreeBlocksTotal() const;
  std::uint32_t regions() const {
    return static_cast<std::uint32_t>(regions_.size() - 1);
  }
  ssd::Controller* controller() { return controller_; }

 private:
  struct Region {
    bool has_active = false;
    flash::BlockAddr active;
    std::uint32_t next_page = 0;
  };

  /// One queued or in-flight append, in a pooled slot; the ProgramPage
  /// continuation captures {this, slot, epoch}.
  struct PendingAppend {
    std::uint64_t token = 0;
    Lba owner = 0;
    std::uint64_t owner_epoch = 0;
    std::uint32_t region = 0;
    NameCallback cb;
    trace::Ctx ctx;
    flash::Ppa ppa;          // set at issue
    std::uint64_t flat = 0;  // flat block of `ppa`
  };

  /// The page move in progress (one collection runs at a time).
  struct Migration {
    flash::BlockAddr victim;
    std::uint32_t page = 0;
    flash::Ppa old_ppa;
    std::uint64_t old_name = 0;
    flash::Ppa dst;
    std::uint64_t dst_flat = 0;
  };

  /// The hidden extra region migration/refresh relocations append into
  /// (never shared with a host stream).
  std::uint32_t MigrationRegion() const {
    return static_cast<std::uint32_t>(regions_.size() - 1);
  }

  /// Ensures `region` has an active block with a free page; false if
  /// the array is out of free blocks. Host regions never take the last
  /// free block — it is reserved as a migration destination, so the
  /// compactor can always make forward progress instead of deadlocking
  /// against the writes that are waiting on it.
  bool EnsureActive(std::uint32_t region, bool for_migration = false);
  /// Issues one append into its region (active block must have room).
  void IssueAppend(PendingAppend* a);
  void OnAppendDone(PendingAppend* a, Status st);
  /// Re-admits queued appends after blocks were freed.
  void PumpQueue();

  void EraseIfDead(const flash::BlockAddr& block);
  void OnRefreshRequest(const flash::BlockAddr& block);
  /// Starts cooperative migration if free space is below the watermark
  /// and a victim exists.
  void MaybeStartMigration();
  /// Relocates the live pages of `victim` one at a time (each move
  /// fires the migration listener), then erases it.
  void CollectVictim(flash::BlockAddr victim);
  void RelocateNext(flash::BlockAddr victim, std::uint32_t page);
  void OnMigrateRead(StatusOr<flash::PageData> res);
  void OnMigrateProgrammed(Status st);
  /// Ends the collection without erasing the victim (no destination,
  /// or a lost/failed copy).
  void AbortMigration();
  void FinishVictim(flash::BlockAddr victim);
  /// Queued appends wait only while something can still free space
  /// (a migration run or a reclaim erase in flight). Once neither is
  /// true the device is genuinely full, and the host — the owner of
  /// liveness — is told so with ResourceExhausted instead of a write
  /// that never completes.
  void FailQueueIfStuck();

  bool BlockQuiet(std::uint64_t flat) const {
    return in_flight_[flat] == 0 && !is_active_[flat];
  }

  template <typename Cb, typename V>
  void PostGuarded(Cb cb, V value) {
    const std::uint64_t epoch = epoch_;
    controller_->sim()->Schedule(
        0, [this, epoch, cb = std::move(cb), value = std::move(value)]() {
          if (epoch != epoch_) return;
          cb(std::move(value));
        });
  }

  const flash::Geometry& geom() const {
    return controller_->config().geometry;
  }
  std::uint64_t FlatBlock(const flash::BlockAddr& a) const {
    return a.Flatten(geom());
  }

  ssd::Controller* controller_;
  std::uint64_t epoch_ = 0;
  SequenceNumber next_seq_ = 1;

  /// regions_[0..append_regions) serve host streams; the last entry is
  /// the migration region.
  std::vector<Region> regions_;
  /// Free blocks per global LUN, plus the round-robin cursor regions
  /// draw from (keeps streams striped across channels).
  std::vector<std::vector<flash::BlockAddr>> free_;
  std::uint32_t next_lun_ = 0;

  // Per flat-block state. live/in-flight counts gate erase; the sum of
  // these vectors *is* the device's translation state (MappingTableBytes).
  std::vector<std::uint32_t> live_count_;
  std::vector<std::uint32_t> in_flight_;
  std::vector<bool> is_free_;
  std::vector<bool> is_active_;
  std::uint64_t live_pages_ = 0;

  sim::ObjectPool<PendingAppend> appends_;
  sim::ObjectPool<ReadCallback> reads_;  // NamelessRead in flight
  sim::ObjectPool<WriteCallback> frees_;  // NamelessFree completions
  std::deque<PendingAppend*> queue_;  // appends waiting on free blocks

  bool migrating_ = false;
  Migration mig_;
  std::size_t pending_reclaims_ = 0;  // EraseIfDead erases in flight
  std::deque<flash::BlockAddr> refresh_queue_;

  MigrationListener migration_listener_;
  Counters counters_;
};

}  // namespace postblock::ftl

#endif  // POSTBLOCK_FTL_APPEND_FTL_H_
