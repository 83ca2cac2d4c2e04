#ifndef POSTBLOCK_BLOCKLAYER_DIRECT_DRIVER_H_
#define POSTBLOCK_BLOCKLAYER_DIRECT_DRIVER_H_

#include <cstdint>

#include "blocklayer/block_device.h"
#include "blocklayer/cpu_model.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "metrics/metrics.h"
#include "sim/object_pool.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace postblock::blocklayer {

/// Direct user-space access to the device, bypassing the block layer —
/// the FusionIO ioMemory SDK path the paper cites: no software queue, no
/// scheduler, no interrupt; just a thin submit cost and a polled
/// completion cost.
class DirectDriver : public BlockDevice {
 public:
  DirectDriver(sim::Simulator* sim, BlockDevice* lower,
               const CpuCosts& cpu = CpuCosts::Direct(),
               std::uint32_t cores = 4,
               const IoRetryPolicy& retry = IoRetryPolicy());
  ~DirectDriver() override = default;

  std::uint64_t num_blocks() const override { return lower_->num_blocks(); }
  std::uint32_t block_bytes() const override {
    return lower_->block_bytes();
  }
  void Submit(IoRequest request) override;
  const Counters& counters() const override { return counters_; }

  /// Typed commands: block-expressible kinds pay the driver's thin
  /// submit/poll costs; extended kinds (atomic groups, nameless writes)
  /// pass straight through to the device when it supports them — the
  /// direct path exists precisely to not stand between host and device.
  void Execute(host::Command cmd) override;
  bool Supports(host::CommandKind kind) const override;
  /// Capability discovery and migration handling pass straight through
  /// (the driver only restates its own command mask).
  host::DeviceCaps Caps() const override {
    host::DeviceCaps caps = lower_->Caps();
    caps.command_mask = CapabilityMask();
    return caps;
  }
  void SetMigrationHandler(host::MigrationHandler handler) override {
    lower_->SetMigrationHandler(std::move(handler));
  }

  const Histogram& latency() const { return latency_; }
  double CpuUtilization() const { return cpu_res_.Utilization(); }

  /// Simulates power loss / host reset: in-flight requests are dropped
  /// (their callbacks never run).
  void PowerCycle() {
    ++epoch_;
    attempts_.ReleaseAll();
  }

  /// Registers this driver's time-series streams (polled-only — the
  /// driver's hot path stays untouched). Call once per registry.
  void RegisterMetrics(metrics::MetricRegistry* m);

 private:
  /// One request from submission to completion, pooled. Every
  /// continuation (submit CPU, device completion, polled completion,
  /// retry backoff) captures {this, op, epoch}; the request rides in the
  /// op while it waits for the CPU, and the device's result while it
  /// waits for the poll.
  struct Attempt {
    IoRequest request;
    IoCallback user_cb;
    IoResult result;
    SimTime start = 0;
    std::uint32_t attempt = 1;
  };

  /// One device submission of `op->request`; re-entered (with the same
  /// `start`) by the EIO retry path when a read comes back DataLoss.
  void SubmitAttempt(Attempt* op);
  void OnDeviceDone(Attempt* op, const IoResult& result);

  sim::Simulator* sim_;
  BlockDevice* lower_;
  CpuCosts cpu_;
  sim::Resource cpu_res_;
  IoRetryPolicy retry_;
  std::uint64_t epoch_ = 0;
  sim::ObjectPool<Attempt> attempts_;
  Histogram latency_;
  Counters counters_;
};

}  // namespace postblock::blocklayer

#endif  // POSTBLOCK_BLOCKLAYER_DIRECT_DRIVER_H_
