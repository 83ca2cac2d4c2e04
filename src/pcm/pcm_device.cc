#include "pcm/pcm_device.h"

#include <algorithm>
#include <cstring>

namespace postblock::pcm {

PcmDevice::PcmDevice(sim::Simulator* sim, const PcmConfig& config)
    : sim_(sim),
      config_(config),
      bytes_(config.capacity_bytes, 0),
      line_wear_((config.capacity_bytes + config.line_bytes - 1) /
                     config.line_bytes,
                 0),
      bus_(sim, "pcm-bus", static_cast<int>(config.banks)) {}

std::uint64_t PcmDevice::LinesFor(std::uint64_t addr,
                                  std::uint64_t len) const {
  if (len == 0) return 0;
  const std::uint64_t first = addr / config_.line_bytes;
  const std::uint64_t last = (addr + len - 1) / config_.line_bytes;
  return last - first + 1;
}

SimTime PcmDevice::ReadLatency(std::uint64_t len) const {
  const std::uint64_t lines = std::max<std::uint64_t>(1, LinesFor(0, len));
  return lines * config_.read_ns_per_line;
}

SimTime PcmDevice::WriteLatency(std::uint64_t len) const {
  const std::uint64_t lines = std::max<std::uint64_t>(1, LinesFor(0, len));
  return lines * config_.write_ns_per_line;
}

void PcmDevice::Write(std::uint64_t addr,
                      const std::vector<std::uint8_t>& data,
                      DoneCallback on_done) {
  if (addr + data.size() > config_.capacity_bytes) {
    on_done(Status::OutOfRange("pcm write beyond capacity"));
    return;
  }
  counters_.Increment("writes");
  counters_.Add("lines_written", LinesFor(addr, data.size()));
  AccessOp* op = ops_.Acquire();
  op->addr = addr;
  op->len = data.size();
  op->latency = WriteLatency(data.size());
  op->epoch = epoch_;
  op->data.assign(data.begin(), data.end());
  op->on_write = std::move(on_done);
  auto granted = [this, op]() {
    auto landed = [this, op]() { LandWrite(op); };
    static_assert(sim::InplaceCallback::fits<decltype(landed)>());
    sim_->Schedule(op->latency, std::move(landed));
  };
  static_assert(sim::Resource::Grant::fits<decltype(granted)>());
  bus_.Acquire(std::move(granted));
}

void PcmDevice::LandWrite(AccessOp* op) {
  bus_.Release();
  if (op->epoch != epoch_) {  // power cut mid-store: bytes lost
    Recycle(op);
    return;
  }
  std::memcpy(bytes_.data() + op->addr, op->data.data(), op->len);
  const std::uint64_t first_line = op->addr / config_.line_bytes;
  const std::uint64_t lines = LinesFor(op->addr, op->len);
  for (std::uint64_t l = 0; l < lines; ++l) ++line_wear_[first_line + l];
  DoneCallback cb = std::move(op->on_write);
  Recycle(op);
  cb(Status::Ok());
}

void PcmDevice::Read(std::uint64_t addr, std::uint64_t len,
                     ReadCallback on_done) {
  if (addr + len > config_.capacity_bytes) {
    on_done(Status::OutOfRange("pcm read beyond capacity"));
    return;
  }
  counters_.Increment("reads");
  AccessOp* op = ops_.Acquire();
  op->addr = addr;
  op->len = len;
  op->latency = ReadLatency(len);
  op->epoch = epoch_;
  op->on_read = std::move(on_done);
  auto granted = [this, op]() {
    sim_->Schedule(op->latency, [this, op]() { LandRead(op); });
  };
  static_assert(sim::Resource::Grant::fits<decltype(granted)>());
  bus_.Acquire(std::move(granted));
}

void PcmDevice::LandRead(AccessOp* op) {
  bus_.Release();
  if (op->epoch != epoch_) {  // power cut: caller is gone
    Recycle(op);
    return;
  }
  std::vector<std::uint8_t> out(bytes_.begin() + op->addr,
                                bytes_.begin() + op->addr + op->len);
  ReadCallback cb = std::move(op->on_read);
  Recycle(op);
  cb(std::move(out));
}

void PcmDevice::Recycle(AccessOp* op) {
  op->data.clear();
  op->on_write = nullptr;
  op->on_read = nullptr;
  ops_.Recycle(op);
}

StatusOr<std::vector<std::uint8_t>> PcmDevice::Peek(std::uint64_t addr,
                                                    std::uint64_t len) const {
  if (addr + len > config_.capacity_bytes) {
    return Status::OutOfRange("pcm peek beyond capacity");
  }
  return std::vector<std::uint8_t>(bytes_.begin() + addr,
                                   bytes_.begin() + addr + len);
}

std::uint64_t PcmDevice::MaxLineWear() const {
  std::uint32_t m = 0;
  for (auto w : line_wear_) m = std::max(m, w);
  return m;
}

void PcmDevice::RegisterMetrics(metrics::MetricRegistry* m) {
  m->AddPolledCounter("pcm.reads",
                      [this] { return counters_.Get("reads"); });
  m->AddPolledCounter("pcm.writes",
                      [this] { return counters_.Get("writes"); });
  m->AddPolledCounter("pcm.lines_written",
                      [this] { return counters_.Get("lines_written"); });
  m->AddPolledCounter("pcm.bus_busy_ns",
                      [this] { return bus_.busy_ns(); });
  m->AddGauge("pcm.max_line_wear",
              [this] { return static_cast<double>(MaxLineWear()); });
}

}  // namespace postblock::pcm
