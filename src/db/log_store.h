#ifndef POSTBLOCK_DB_LOG_STORE_H_
#define POSTBLOCK_DB_LOG_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "blocklayer/block_device.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/statusor.h"
#include "sim/inplace_callback.h"
#include "sim/simulator.h"

namespace postblock::db {

/// A host-level log-structured KV store — the "log on log" the paper
/// calls out in §3: "the management of log-structured files ... is
/// today handled both at the database level and within the FTL".
///
/// Records append into fixed-size segments; overwrites and deletes
/// leave dead records that *host* compaction reclaims by rewriting live
/// ones — on top of a flash device whose FTL is doing the exact same
/// dance one layer down. The compounded write amplification (host WA x
/// device WA) is what `bench_vision_interface`'s log-on-log section
/// reports, along with the effect of trimming reclaimed segments so the
/// two collectors at least stop fighting over ghosts.
///
/// The key index is volatile (rebuildable by a segment scan in a real
/// system); records are fixed-size (key,value) pairs packed into pages.
class LogStructuredStore {
 public:
  struct Options {
    std::uint32_t segment_pages = 64;     // pages per segment
    std::uint32_t records_per_page = 128; // fixed-size records
    /// Host compaction triggers when a sealed segment's dead fraction
    /// reaches this level.
    double compact_threshold = 0.5;
    /// TRIM reclaimed segments (the §3.2 command) so the FTL stops
    /// relocating dead host data.
    bool trim_dead_segments = true;
  };

  using StatusCb = sim::InplaceFunction<void(Status)>;
  using GetCb = sim::InplaceFunction<void(StatusOr<std::uint64_t>)>;

  LogStructuredStore(sim::Simulator* sim, blocklayer::BlockDevice* device,
                     const Options& options);

  LogStructuredStore(const LogStructuredStore&) = delete;
  LogStructuredStore& operator=(const LogStructuredStore&) = delete;

  /// Appends/overwrites one key. The callback fires when the record's
  /// page reaches the device (records buffer until their page fills or
  /// Flush() is called — group commit).
  void Put(std::uint64_t key, std::uint64_t value, StatusCb cb);

  /// Point lookup (index hit + one page read).
  void Get(std::uint64_t key, GetCb cb);

  /// Drops the key (index-only; space reclaimed by compaction).
  void Delete(std::uint64_t key, StatusCb cb);

  /// Forces the open page out (fires all pending Put callbacks).
  void Flush(StatusCb cb);

  /// Host-level write amplification: pages written (appends +
  /// compaction rewrites) / pages worth of fresh records.
  double HostWriteAmplification() const;

  std::size_t live_keys() const { return index_.size(); }
  std::uint64_t SegmentsInUse() const;
  std::uint32_t SegmentCount() const {
    return static_cast<std::uint32_t>(segments_.size());
  }
  const Counters& counters() const { return counters_; }

 private:
  struct RecordLoc {
    std::uint32_t segment = 0;
    std::uint32_t page = 0;  // within segment
    std::uint32_t slot = 0;  // within page
    friend bool operator==(const RecordLoc&, const RecordLoc&) = default;
  };
  struct Segment {
    std::uint32_t live = 0;
    std::uint32_t total = 0;
    /// Page writes issued but not yet durable — such a segment must not
    /// be compacted (its pages would read back unwritten).
    std::uint32_t pending_io = 0;
    bool active = false;
    bool free = true;
  };
  using PageRecords = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

  Lba SegmentBase(std::uint32_t segment) const {
    return static_cast<Lba>(segment) * options_.segment_pages;
  }
  void AppendRecord(std::uint64_t key, std::uint64_t value, bool fresh,
                    StatusCb cb);
  void FlushOpenPage(StatusCb extra_cb = nullptr);
  bool OpenNextSegment();
  void SealActiveIfFull();
  void MaybeCompact();
  void CompactSegment(std::uint32_t victim);
  /// Rewrites the live records of `victim`'s page `page`, then moves on
  /// to the next page (releasing the segment after the last one).
  void CompactPage(std::uint32_t victim, std::uint32_t page);
  void GetAttempt(std::uint64_t key, int tries, GetCb cb);

  sim::Simulator* sim_;
  blocklayer::BlockDevice* device_;
  Options options_;

  std::unordered_map<std::uint64_t, RecordLoc> index_;
  std::vector<Segment> segments_;
  std::uint32_t active_segment_ = 0;
  std::uint32_t active_page_ = 0;

  PageRecords open_page_;
  std::vector<StatusCb> open_page_cbs_;
  /// Content registry: token -> the records of that written page (see
  /// db::PageImageStore for the payload-token modeling rationale).
  std::unordered_map<std::uint64_t, PageRecords> page_payloads_;

  bool compacting_ = false;
  std::uint64_t next_token_ = 1;
  Counters counters_;
};

}  // namespace postblock::db

#endif  // POSTBLOCK_DB_LOG_STORE_H_
