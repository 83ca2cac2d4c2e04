#include "ssd/write_buffer.h"

#include <utility>

namespace postblock::ssd {

WriteBuffer::WriteBuffer(sim::Simulator* sim, ftl::Ftl* ftl,
                         const WriteBufferConfig& config,
                         std::uint32_t num_luns)
    : sim_(sim),
      ftl_(ftl),
      config_(config),
      max_inflight_(config.drain_depth_per_lun * num_luns) {}

bool WriteBuffer::Lookup(Lba lba, std::uint64_t* token) const {
  auto it = entries_.find(lba);
  if (it == entries_.end()) return false;
  *token = it->second.token;
  return true;
}

void WriteBuffer::SubmitWrite(Lba lba, std::uint64_t token,
                              ftl::Ftl::WriteCallback cb) {
  auto it = entries_.find(lba);
  if (it != entries_.end()) {
    // Absorb: replace the buffered copy in place.
    counters_.Increment("absorbed_overwrites");
    it->second.token = token;
    it->second.version = next_version_++;
    it->second.retried = false;  // fresh data, fresh retry budget
    if (!it->second.queued) {
      it->second.queued = true;
      drain_fifo_.push_back(lba);
    }
    sim_->Schedule(config_.insert_ns,
                   [cb = std::move(cb)]() { cb(Status::Ok()); });
    PumpDrain();
    return;
  }
  if (entries_.size() >= config_.pages) {
    counters_.Increment("buffer_full_waits");
    space_waiters_.push_back(WaitingInsert{lba, token, std::move(cb)});
    PumpDrain();
    return;
  }
  counters_.Increment("inserts");
  Entry e;
  e.token = token;
  e.version = next_version_++;
  e.queued = true;
  entries_[lba] = e;
  drain_fifo_.push_back(lba);
  sim_->Schedule(config_.insert_ns,
                 [cb = std::move(cb)]() { cb(Status::Ok()); });
  PumpDrain();
}

void WriteBuffer::PumpDrain() {
  while (inflight_drains_ < max_inflight_ && !drain_fifo_.empty()) {
    const Lba lba = drain_fifo_.front();
    drain_fifo_.pop_front();
    auto it = entries_.find(lba);
    if (it == entries_.end() || !it->second.queued) continue;
    it->second.queued = false;
    it->second.draining = true;
    const std::uint64_t version = it->second.version;
    const std::uint64_t token = it->second.token;
    ++inflight_drains_;
    counters_.Increment("drains");
    auto drained = [this, lba, version](Status st) {
      OnDrained(lba, version, std::move(st));
    };
    static_assert(ftl::Ftl::WriteCallback::fits<decltype(drained)>());
    ftl_->Write(lba, token, std::move(drained));
  }
}

void WriteBuffer::OnDrained(Lba lba, std::uint64_t version, Status st) {
  --inflight_drains_;
  if (!st.ok()) counters_.Increment("drain_failures");
  auto it = entries_.find(lba);
  if (it != entries_.end() && it->second.version == version) {
    if (st.ok()) {
      // Not rewritten while draining: the buffered copy is durable.
      entries_.erase(it);
    } else if (!it->second.retried) {
      // Keep the dirty data and try the flash once more (the FTL
      // places retries on a fresh block, so a one-off media error
      // is usually survivable).
      it->second.retried = true;
      it->second.draining = false;
      it->second.queued = true;
      drain_fifo_.push_back(lba);
      counters_.Increment("drain_retries");
    } else {
      // Retry burned too: the page is lost. Surface the real
      // status to flush waiters instead of a false Ok.
      entries_.erase(it);
      counters_.Increment("drain_drops");
      if (drain_error_.ok()) drain_error_ = st;
    }
  } else if (it != entries_.end()) {
    // Rewritten while draining; the newer version will drain on its
    // own and supersedes this copy, failed or not.
    it->second.draining = false;
  }
  // Freed space: admit a waiting insert.
  if (!space_waiters_.empty() && entries_.size() < config_.pages) {
    WaitingInsert w = std::move(space_waiters_.front());
    space_waiters_.pop_front();
    SubmitWrite(w.lba, w.token, std::move(w.cb));
  }
  PumpDrain();
  CheckFlushWaiters();
}

void WriteBuffer::Drop(Lba lba) {
  auto it = entries_.find(lba);
  if (it == entries_.end()) return;
  // Remove from lookups immediately — a post-trim read must not hit the
  // stale copy. If a drain of this entry is in flight, its completion
  // tolerates the missing entry, and the FTL's sequence ordering makes
  // the trailing flash write lose to the trim.
  entries_.erase(it);
  counters_.Increment("dropped_by_trim");
  CheckFlushWaiters();
}

void WriteBuffer::Flush(ftl::Ftl::WriteCallback cb) {
  if (empty() && inflight_drains_ == 0) {
    const Status st = drain_error_;
    drain_error_ = Status::Ok();
    sim_->Schedule(0, [cb = std::move(cb), st]() { cb(st); });
    return;
  }
  flush_waiters_.push_back(std::move(cb));
  PumpDrain();
}

void WriteBuffer::CheckFlushWaiters() {
  if (!(empty() && inflight_drains_ == 0) || flush_waiters_.empty()) {
    return;
  }
  const Status st = drain_error_;
  drain_error_ = Status::Ok();
  auto waiters = std::move(flush_waiters_);
  flush_waiters_.clear();
  for (auto& w : waiters) w(st);
}

void WriteBuffer::DiscardAll() {
  entries_.clear();
  drain_fifo_.clear();
  space_waiters_.clear();
  inflight_drains_ = 0;
  drain_error_ = Status::Ok();
  counters_.Increment("discards");
}

void WriteBuffer::RequeueAfterPowerCycle() {
  inflight_drains_ = 0;
  drain_fifo_.clear();
  for (auto& [lba, e] : entries_) {
    e.draining = false;
    e.queued = true;
    drain_fifo_.push_back(lba);
  }
  counters_.Increment("requeues");
  PumpDrain();
}

}  // namespace postblock::ssd
