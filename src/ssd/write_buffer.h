#ifndef POSTBLOCK_SSD_WRITE_BUFFER_H_
#define POSTBLOCK_SSD_WRITE_BUFFER_H_

#include <cstdint>
#include <deque>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "ftl/ftl.h"
#include "sim/simulator.h"
#include "ssd/config.h"

namespace postblock::ssd {

/// Battery-backed controller RAM write cache — the paper's "safe cache"
/// (Myth 2, reason one): a write IO completes as soon as it hits this
/// buffer, and the controller drains it to flash in the background with
/// full placement freedom, so the host-visible cost of random and
/// sequential writes converges.
class WriteBuffer {
 public:
  WriteBuffer(sim::Simulator* sim, ftl::Ftl* ftl,
              const WriteBufferConfig& config,
              std::uint32_t num_luns);

  WriteBuffer(const WriteBuffer&) = delete;
  WriteBuffer& operator=(const WriteBuffer&) = delete;

  /// Buffers one page write. Completes after `insert_ns` once space is
  /// available (overwrites of buffered LBAs absorb in place).
  void SubmitWrite(Lba lba, std::uint64_t token,
                   ftl::Ftl::WriteCallback cb);

  /// Read hit: newest buffered token for `lba`, if present.
  bool Lookup(Lba lba, std::uint64_t* token) const;

  /// Drops a buffered (not yet draining) copy — used by trim.
  void Drop(Lba lba);

  /// Completes once every buffered page is durable on flash and no
  /// insert is waiting for space.
  void Flush(ftl::Ftl::WriteCallback cb);

  /// Power loss without battery: volatile contents vanish.
  void DiscardAll();

  /// Power loss with battery: contents survive, but in-flight drains
  /// were dropped with the FTL's volatile state — requeue everything.
  void RequeueAfterPowerCycle();

  std::size_t entries() const { return entries_.size(); }
  bool empty() const {
    return entries_.empty() && space_waiters_.empty();
  }
  const Counters& counters() const { return counters_; }

 private:
  struct Entry {
    std::uint64_t token = 0;
    std::uint64_t version = 0;
    bool queued = false;    // in drain_fifo_
    bool draining = false;  // FTL write in flight
    bool retried = false;   // one failed drain already burned the retry
  };

  void PumpDrain();
  /// A drain write of `version` of `lba` finished with `st`.
  void OnDrained(Lba lba, std::uint64_t version, Status st);
  void CheckFlushWaiters();

  sim::Simulator* sim_;
  ftl::Ftl* ftl_;
  WriteBufferConfig config_;
  std::uint32_t max_inflight_;

  std::unordered_map<Lba, Entry> entries_;
  std::deque<Lba> drain_fifo_;
  std::uint32_t inflight_drains_ = 0;
  std::uint64_t next_version_ = 1;

  struct WaitingInsert {
    Lba lba;
    std::uint64_t token;
    ftl::Ftl::WriteCallback cb;
  };
  std::deque<WaitingInsert> space_waiters_;
  std::vector<ftl::Ftl::WriteCallback> flush_waiters_;
  /// First drain failure that cost data (retry exhausted): delivered to
  /// the next flush batch instead of a false Ok, then cleared.
  Status drain_error_ = Status::Ok();

  Counters counters_;
};

}  // namespace postblock::ssd

#endif  // POSTBLOCK_SSD_WRITE_BUFFER_H_
