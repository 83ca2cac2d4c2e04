#ifndef POSTBLOCK_PCM_PCM_DEVICE_H_
#define POSTBLOCK_PCM_PCM_DEVICE_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/types.h"
#include "metrics/metrics.h"
#include "sim/inplace_callback.h"
#include "sim/object_pool.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace postblock::pcm {

/// Phase-change memory timing/geometry. Circa-2012 figures: reads near
/// DRAM, writes several times slower; byte-addressable; in-place update
/// (no erase); finite but large per-line endurance.
struct PcmConfig {
  std::uint64_t capacity_bytes = 64 * kMiB;
  std::uint32_t line_bytes = 64;          // access granularity on the bus
  SimTime read_ns_per_line = 100;
  SimTime write_ns_per_line = 500;
  std::uint32_t banks = 4;                // concurrent line accesses
  std::uint64_t endurance_writes = 100'000'000;  // per line (C4 analogue)
};

/// PCM plugged on the memory bus (the paper's Section 3 principle 1
/// target for synchronous persistence). Access is modeled as occupying
/// one of `banks` concurrent units for the per-line latency — there is
/// no block indirection, no erase, no garbage collection.
class PcmDevice {
 public:
  using DoneCallback = sim::InplaceFunction<void(Status)>;
  using ReadCallback =
      sim::InplaceFunction<void(StatusOr<std::vector<std::uint8_t>>)>;

  PcmDevice(sim::Simulator* sim, const PcmConfig& config);

  PcmDevice(const PcmDevice&) = delete;
  PcmDevice& operator=(const PcmDevice&) = delete;

  const PcmConfig& config() const { return config_; }

  /// Persists a copy of `data` at byte offset `addr`. Completion fires
  /// after the store reaches the device (write-through; no volatile
  /// cache).
  void Write(std::uint64_t addr, const std::vector<std::uint8_t>& data,
             DoneCallback on_done);

  /// Reads `len` bytes from `addr`.
  void Read(std::uint64_t addr, std::uint64_t len, ReadCallback on_done);

  /// Synchronous state inspection for tests (no timing).
  StatusOr<std::vector<std::uint8_t>> Peek(std::uint64_t addr,
                                           std::uint64_t len) const;

  /// Latency a single isolated access of `len` bytes would take.
  SimTime ReadLatency(std::uint64_t len) const;
  SimTime WriteLatency(std::uint64_t len) const;

  /// Max per-line write count (wear; the paper notes PCM-based SSDs
  /// still need wear management).
  std::uint64_t MaxLineWear() const;

  /// Simulates power loss: contents persist (it's PCM) but in-flight
  /// stores/loads are dropped — their callbacks never fire and a torn
  /// store leaves the old bytes.
  void PowerCycle() { ++epoch_; }

  const Counters& counters() const { return counters_; }
  sim::Resource* bus() { return &bus_; }

  /// Registers this device's time-series streams (polled-only — the
  /// access path stays untouched). Call once per registry.
  void RegisterMetrics(metrics::MetricRegistry* m);

 private:
  /// One store or load from its call to its completion, pooled; the bus
  /// grant and the latency event capture {this, op}. A store keeps its
  /// own copy of the bytes (the buffer keeps its capacity across uses).
  struct AccessOp {
    std::uint64_t addr = 0;
    std::uint64_t len = 0;
    SimTime latency = 0;
    std::uint64_t epoch = 0;
    std::vector<std::uint8_t> data;  // stores only
    DoneCallback on_write;
    ReadCallback on_read;
  };

  std::uint64_t LinesFor(std::uint64_t addr, std::uint64_t len) const;
  void LandWrite(AccessOp* op);
  void LandRead(AccessOp* op);
  void Recycle(AccessOp* op);

  sim::Simulator* sim_;
  PcmConfig config_;
  std::vector<std::uint8_t> bytes_;
  std::vector<std::uint32_t> line_wear_;
  sim::Resource bus_;
  std::uint64_t epoch_ = 0;
  sim::ObjectPool<AccessOp> ops_;
  Counters counters_;
};

}  // namespace postblock::pcm

#endif  // POSTBLOCK_PCM_PCM_DEVICE_H_
