#include "core/pcm_log.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace postblock::core {

PcmLog::PcmLog(sim::Simulator* sim, pcm::PcmDevice* pcm,
               std::uint64_t region_off, std::uint64_t region_len)
    : sim_(sim), pcm_(pcm), region_off_(region_off),
      region_len_(region_len) {}

void PcmLog::Append(const std::vector<std::uint8_t>& payload,
                    AppendCallback cb) {
  PendingAppend* a = appends_.Acquire();
  // The header is stamped at issue (LSN and sequence are assigned in
  // queue order); the trailing header stays zero as the new terminator.
  a->store.assign(kHeaderBytes + payload.size() + kHeaderBytes, 0);
  std::copy(payload.begin(), payload.end(), a->store.begin() + kHeaderBytes);
  a->cb = std::move(cb);
  a->enqueued_at = sim_->Now();
  queue_.push_back(a);
  PumpQueue();
}

void PcmLog::PumpQueue() {
  if (store_in_flight_ || queue_head_ == queue_.size()) return;
  PendingAppend* a = queue_[queue_head_++];
  if (queue_head_ == queue_.size()) {
    queue_.clear();
    queue_head_ = 0;
  }

  const std::uint64_t need = a->store.size();
  if (head_ + need > region_len_) {
    counters_.Increment("append_full");
    const std::uint64_t epoch = epoch_;
    sim_->Schedule(0, [this, a, epoch]() {
      if (epoch != epoch_) return;
      AppendCallback cb = std::move(a->cb);
      Recycle(a);
      cb(Status::ResourceExhausted("pcm log region full"));
      PumpQueue();
    });
    return;
  }
  const std::uint32_t len =
      static_cast<std::uint32_t>(need - 2 * kHeaderBytes);
  const std::uint32_t rec_seq = next_rec_seq_++;
  a->lsn = head_;

  // One store covers header + payload + the new zero terminator; the
  // next append overwrites that terminator in place (no erase on PCM).
  std::memcpy(a->store.data(), &len, sizeof(len));
  std::memcpy(a->store.data() + sizeof(len), &rec_seq, sizeof(rec_seq));
  head_ += kHeaderBytes + len;

  counters_.Increment("appends");
  counters_.Add("bytes_appended", len);
  store_in_flight_ = true;
  const std::uint64_t epoch = epoch_;
  auto stored = [this, a, epoch](Status st) {
    if (epoch != epoch_) return;
    OnStored(a, std::move(st));
  };
  static_assert(pcm::PcmDevice::DoneCallback::fits<decltype(stored)>());
  pcm_->Write(region_off_ + a->lsn, a->store, std::move(stored));
}

void PcmLog::OnStored(PendingAppend* a, Status st) {
  store_in_flight_ = false;
  append_latency_.Record(sim_->Now() - a->enqueued_at);
  const Lsn lsn = a->lsn;
  AppendCallback cb = std::move(a->cb);
  Recycle(a);
  if (!st.ok()) {
    cb(std::move(st));
  } else {
    cb(lsn);
  }
  PumpQueue();
}

void PcmLog::Recycle(PendingAppend* a) {
  a->store.clear();
  a->cb = nullptr;
  appends_.Recycle(a);
}

void PcmLog::Truncate(DoneCallback cb) {
  head_ = 0;
  counters_.Increment("truncates");
  pcm_->Write(region_off_, terminator_, std::move(cb));
}

std::vector<std::vector<std::uint8_t>> PcmLog::RecoverAll() const {
  std::vector<std::vector<std::uint8_t>> out;
  std::uint64_t off = 0;
  for (;;) {
    if (off + kHeaderBytes > region_len_) break;
    auto header = pcm_->Peek(region_off_ + off, kHeaderBytes);
    if (!header.ok()) break;
    std::uint32_t len = 0;
    std::uint32_t rec_seq = 0;
    std::memcpy(&len, header->data(), sizeof(len));
    std::memcpy(&rec_seq, header->data() + sizeof(len), sizeof(rec_seq));
    if (len == 0 || rec_seq == 0) break;  // terminator
    if (off + kHeaderBytes + len > region_len_) break;  // corrupt tail
    auto payload = pcm_->Peek(region_off_ + off + kHeaderBytes, len);
    if (!payload.ok()) break;
    out.push_back(std::move(*payload));
    off += kHeaderBytes + len;
  }
  return out;
}

void PcmLog::ResetAfterCrash() {
  ++epoch_;
  queue_.clear();
  queue_head_ = 0;
  appends_.ReleaseAll();
  store_in_flight_ = false;
  // Rewind the head to the durable chain's end.
  std::uint64_t off = 0;
  for (;;) {
    if (off + kHeaderBytes > region_len_) break;
    auto header = pcm_->Peek(region_off_ + off, kHeaderBytes);
    if (!header.ok()) break;
    std::uint32_t len = 0;
    std::uint32_t rec_seq = 0;
    std::memcpy(&len, header->data(), sizeof(len));
    std::memcpy(&rec_seq, header->data() + sizeof(len), sizeof(rec_seq));
    if (len == 0 || rec_seq == 0) break;
    if (off + kHeaderBytes + len > region_len_) break;
    off += kHeaderBytes + len;
  }
  head_ = off;
  counters_.Increment("crash_resets");
}

}  // namespace postblock::core
