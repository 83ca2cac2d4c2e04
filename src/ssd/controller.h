#ifndef POSTBLOCK_SSD_CONTROLLER_H_
#define POSTBLOCK_SSD_CONTROLLER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/statusor.h"
#include "flash/chip.h"
#include "metrics/metrics.h"
#include "sim/inplace_callback.h"
#include "sim/object_pool.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "ssd/channel.h"
#include "ssd/config.h"
#include "trace/trace.h"
#include "trace/tracer.h"

namespace postblock::ssd {

class ShardRouter;

/// The timed flash back-end (Figure 2, lower half): owns the flash
/// array, one bus Resource per channel and one serial Resource per LUN,
/// and composes them into timed page operations:
///
///   read:    [LUN: cmd + array-read] then [channel: data transfer out]
///   program: [channel: data transfer in] then [LUN: array program]
///   erase:   [channel: cmd] then [LUN: block erase]
///
/// The asymmetry is the mechanism behind the paper's Figure 1: parallel
/// reads pile up on the shared channel (channel-bound) while parallel
/// programs overlap their long array-program phases (chip-bound).
///
/// Two execution modes share every phase method:
///
///   single-sim (first ctor): channels, units and the firmware all live
///   on one Simulator — the pre-existing behaviour, event-for-event.
///
///   sharded (second ctor): the firmware (flash array, FTL callbacks,
///   op pool, latency accounting, reliability state) stays on the
///   plan's controller shard, while each channel's bus Resource, unit
///   Resources and GC occupancy clocks live on that channel's shard.
///   Ops cross the seam exactly twice — ShardRouter::Dispatch after the
///   controller stamps the op, ShardRouter::Complete after the timed
///   pipeline releases its unit — so all shared mutable state remains
///   single-shard and the committed schedule is worker-count invariant
///   (DESIGN.md §4i has the full ownership table).
class Controller {
 public:
  Controller(sim::Simulator* sim, const Config& config);

  /// Sharded mode: timed pipelines on per-channel shards, firmware on
  /// the controller shard. `channel_tracers` (optional) gives channel
  /// shard c its own trace ring — the shared config tracer only ever
  /// records from the controller shard, so per-unit timeline events
  /// need per-shard rings (pass none to skip them). config.metrics must
  /// be null: the registry's polled gauges read channel-shard state.
  Controller(ShardRouter* router, const Config& config,
             const std::vector<trace::Tracer*>& channel_tracers = {});

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  using ReadCallback = sim::InplaceFunction<void(StatusOr<flash::PageData>)>;
  using OpCallback = sim::InplaceFunction<void(Status)>;

  /// Timed page read through LUN + channel. `ctx` ties the op to a
  /// trace span and names its originator (host read vs GC vs ...), the
  /// input to GC-stall attribution.
  void ReadPage(const flash::Ppa& ppa, ReadCallback on_done,
                trace::Ctx ctx = {});

  /// Timed page program. Array state mutates when the program phase
  /// finishes; constraint violations surface in the callback status.
  void ProgramPage(const flash::Ppa& ppa, const flash::PageData& data,
                   OpCallback on_done, trace::Ctx ctx = {});

  /// Timed block erase.
  void EraseBlock(const flash::BlockAddr& addr, OpCallback on_done,
                  trace::Ctx ctx = {});

  /// Copyback (ONFI internal data move): reads `src` into the plane's
  /// page register and programs it to `dst` without crossing the
  /// channel — the chips' native cheap path for GC relocation. Both
  /// pages must live on the same plane of the same LUN; the data never
  /// leaves the die (so no ECC scrub — real controllers alternate
  /// copyback with read-verify; modeled here as error-model-free).
  void CopybackPage(const flash::Ppa& src, const flash::Ppa& dst,
                    OpCallback on_done, trace::Ctx ctx = {});

  sim::Simulator* sim() { return sim_; }
  const Config& config() const { return config_; }
  flash::FlashArray* flash() { return &flash_; }

  Channel* channel(std::uint32_t index) { return channels_[index].get(); }
  /// The serial execution unit for an address: the LUN, or — with
  /// Config::plane_parallelism — the plane within it.
  sim::Resource* unit_for(const flash::Ppa& ppa) {
    return units_[UnitIndex(ppa.GlobalLun(config_.geometry), ppa.plane)]
        .get();
  }
  sim::Resource* unit_for(const flash::BlockAddr& a) {
    return units_[UnitIndex(a.GlobalLun(config_.geometry), a.plane)].get();
  }
  sim::Resource* lun(std::uint32_t global_lun) {
    return units_[UnitIndex(global_lun, 0)].get();
  }
  std::uint32_t num_channels() const {
    return static_cast<std::uint32_t>(channels_.size());
  }
  std::uint32_t num_units() const {
    return static_cast<std::uint32_t>(units_.size());
  }

  /// Device-level op latency distributions (queueing included).
  const Histogram& read_latency() const { return read_latency_; }
  const Histogram& program_latency() const { return program_latency_; }
  const Histogram& erase_latency() const { return erase_latency_; }

  const Counters& counters() const { return flash_.counters(); }

  /// Total flash energy consumed so far (nanojoules): every array
  /// read/program/erase plus bus transfers, GC traffic included.
  std::uint64_t EnergyNj() const {
    return flash_.counters().Get("energy_nj");
  }

  trace::Tracer* tracer() { return tracer_; }
  metrics::MetricRegistry* metrics() { return metrics_; }

  // --- Reliability layer (Myth 1: error management at the SSD level) --
  /// Fires when a physical block crosses the correctable-read
  /// threshold: the FTL should refresh it (relocate live data) before
  /// its errors become uncorrectable. Called at most once per block
  /// between erases, from a read-completion context.
  using RefreshListener =
      sim::InplaceFunction<void(const flash::BlockAddr&)>;
  void SetRefreshListener(RefreshListener cb) { refresh_ = std::move(cb); }

  /// True once any LUN has exhausted its bad-block spare budget: the
  /// device fails writes (ResourceExhausted) but keeps serving reads —
  /// the fail-safe real SSDs implement, never UB.
  bool read_only() const { return read_only_; }
  std::uint32_t spare_blocks(std::uint32_t global_lun) const {
    return global_lun < spares_.size() ? spares_[global_lun] : 0;
  }
  std::uint64_t spare_blocks_total() const {
    std::uint64_t total = 0;
    for (std::uint32_t s : spares_) total += s;
    return total;
  }
  /// Blocks retired by erase failure, as observed at the controller —
  /// cross-checks flash counters "erase_failures" and the FTLs'
  /// "blocks_retired".
  std::uint64_t blocks_retired() const { return blocks_retired_; }
  std::uint64_t read_retries() const { return read_retries_; }
  /// Trace track of a serial execution unit (for FTL instrumentation
  /// that wants to annotate a LUN's timeline).
  std::uint32_t unit_track(std::uint32_t unit) const {
    return unit_tracks_.empty() ? 0 : unit_tracks_[unit];
  }
  std::uint32_t UnitIndexFor(const flash::Ppa& ppa) const {
    return UnitIndex(ppa.GlobalLun(config_.geometry), ppa.plane);
  }

  /// Nanoseconds host reads/writes spent waiting on units or channel
  /// buses *because* GC/WL work held them — the paper's Fig. 2
  /// interference, isolated. Always maintained (cheap integer math),
  /// tracer or not, but only nonzero once ops carry origins (i.e. a
  /// tracer is attached to the owning Device/stack).
  std::uint64_t GcStallReadNs() const;
  std::uint64_t GcStallWriteNs() const;

  /// Power cut: every in-flight operation dies without touching the
  /// cells (a real interrupted program/erase leaves garbage; we model
  /// the stronger "nothing happened", which recovery code must already
  /// tolerate) and without invoking its callback. Channel/LUN resources
  /// are still released so the powered-back-up controller can operate.
  void PowerCycle() { ++epoch_; }

 private:
  /// Per-operation state, pooled and recycled. Scheduling lambdas on the
  /// read/program/copyback/erase paths capture only {this, Op*}, which
  /// keeps them inside InplaceCallback's inline buffer — the controller
  /// schedules millions of events per simulated second without touching
  /// the allocator.
  struct Op {
    flash::Ppa src;
    flash::Ppa dst;  // copyback destination
    flash::PageData data;
    SimTime start = 0;
    std::uint64_t epoch = 0;
    sim::Resource* lun = nullptr;
    Channel* chan = nullptr;
    /// The simulator the op's timed phases run on: sim_ in single-sim
    /// mode, the owning channel's shard sim in sharded mode.
    sim::Simulator* sim = nullptr;
    ReadCallback read_cb;
    OpCallback op_cb;
    trace::Ctx ctx;
    SimTime wait_start = 0;      // when the op began waiting on its unit
    std::uint64_t gc_mark = 0;   // unit GC-busy integral at wait start
    /// Scripted stuck-busy penalty, pre-drawn on the controller shard
    /// at dispatch (the injector's script is consume-once state, so the
    /// channel shards may never touch it). Single-sim mode keeps the
    /// in-phase draw and leaves this 0.
    SimTime stuck = 0;
    std::uint32_t unit = 0;
    std::uint32_t retry = 0;     // read-retry ladder rung (0 = first try)
  };

  /// Common entry for an op: stamps identity/wait state and requests
  /// the serial unit; `phase` runs on grant, after wait attribution.
  /// Sharded mode routes the unit request through the dispatch edge.
  void StartOp(Op* op, trace::Ctx ctx, void (Controller::*phase)(Op*));
  /// Stamps wait state and requests the serial unit. Single-sim mode
  /// calls it inline from StartOp; sharded mode runs it as the
  /// dispatch-edge event on the op's channel shard.
  void BeginUnitWait(Op* op, void (Controller::*phase)(Op*));
  /// Splits the just-ended unit wait into queue vs GC-stall, updates
  /// the stall counters, and marks the unit GC-busy for GC-origin ops.
  void OnUnitGrant(Op* op);
  void ExitUnit(Op* op);
  /// Releases the unit and hands the op to its Finish* method: inline
  /// in single-sim mode, across the completion edge in sharded mode
  /// (the Finish methods mutate controller-shard state).
  void EndPipeline(Op* op, void (Controller::*finish)(Op*));
  /// The tracer that owns this op's unit timeline: the shared tracer in
  /// single-sim mode, the op's channel-shard ring in sharded mode.
  trace::Tracer* TracerFor(const Op* op) const {
    return sharded_ ? chan_tracers_[op->src.channel] : tracer_;
  }
  bool Traced(const Op* op) const {
    trace::Tracer* t = TracerFor(op);
    return t != nullptr && t->enabled() && op->ctx.span != 0;
  }
  /// Health-track events record on the shared tracer from the
  /// controller shard (Finish* context), in both modes.
  bool TracedHealth(const Op* op) const {
    return tracer_ != nullptr && tracer_->enabled() && op->ctx.span != 0;
  }
  void RecordCellOp(Op* op, SimTime busy_ns);
  /// The op's stuck-busy penalty: pre-drawn in sharded mode, drawn
  /// in-phase otherwise (identical values — the injector script is
  /// keyed by LUN and consumed in the same per-LUN order either way).
  SimTime PenaltyOf(Op* op) {
    return sharded_ ? op->stuck : StuckPenalty(op);
  }
  /// Registers the flash-backend metric streams (cold path, ctor).
  void RegisterMetrics();

  void ReadArrayPhase(Op* op);
  void ReadTransferPhase(Op* op);
  void FinishRead(Op* op);
  /// Re-queues a failed read on the next retry-ladder rung (re-senses
  /// the array with decayed error rates and escalated latency).
  void RetryRead(Op* op);
  /// Correctable-threshold bookkeeping; may fire the refresh listener.
  void NoteCorrectable(const flash::Ppa& ppa);
  /// Scripted stuck-busy penalty for this op's LUN (0 when no injector).
  SimTime StuckPenalty(const Op* op);
  void ProgramTransferPhase(Op* op);
  void ProgramArrayPhase(Op* op);
  void FinishProgram(Op* op);
  void CopybackCommandPhase(Op* op);
  void CopybackBusyPhase(Op* op);
  void FinishCopyback(Op* op);
  void EraseCommandPhase(Op* op);
  void EraseBusyPhase(Op* op);
  void FinishErase(Op* op);

  std::uint32_t UnitIndex(std::uint32_t global_lun,
                          std::uint32_t plane) const {
    return global_lun * units_per_lun_ + plane % units_per_lun_;
  }

  /// Shared ctor body; `router` is null in single-sim mode.
  void Init(ShardRouter* router,
            const std::vector<trace::Tracer*>& channel_tracers);

  sim::Simulator* sim_;  // the controller/firmware event loop
  Config config_;
  flash::FlashArray flash_;
  ShardRouter* router_ = nullptr;  // non-null iff sharded mode
  bool sharded_ = false;
  std::vector<trace::Tracer*> chan_tracers_;  // sharded: ring per channel
  std::vector<std::unique_ptr<Channel>> channels_;
  std::uint32_t units_per_lun_ = 1;
  std::vector<std::unique_ptr<sim::Resource>> units_;
  std::uint64_t epoch_ = 0;

  trace::Tracer* tracer_ = nullptr;
  // Pushed-counter Ids mirror the flash Counters' ok-path semantics so
  // the sampler's final row cross-checks against flash_.counters().
  metrics::MetricRegistry* metrics_ = nullptr;
  metrics::Id m_pages_read_ = metrics::kInvalidId;
  metrics::Id m_pages_programmed_ = metrics::kInvalidId;
  metrics::Id m_blocks_erased_ = metrics::kInvalidId;
  metrics::Id m_copybacks_ = metrics::kInvalidId;
  metrics::Id m_read_lat_ = metrics::kInvalidId;
  metrics::Id m_program_lat_ = metrics::kInvalidId;
  metrics::Id m_erase_lat_ = metrics::kInvalidId;
  metrics::Id m_read_retries_ = metrics::kInvalidId;
  metrics::Id m_blocks_retired_ = metrics::kInvalidId;
  metrics::Id m_retry_lat_ = metrics::kInvalidId;
  std::vector<std::uint32_t> unit_tracks_;   // trace track per unit
  std::uint32_t health_track_ = 0;           // retry/retirement events
  std::vector<trace::BusyClock> unit_gc_;    // GC occupancy per unit
  // Unit-level GC stall, split per channel so each accumulator is only
  // ever written by the shard that owns the unit's channel (the
  // accessors sum them and add the channel/bus level; in sharded mode
  // read them only between engine runs).
  std::vector<std::uint64_t> gc_stall_read_by_chan_;
  std::vector<std::uint64_t> gc_stall_write_by_chan_;

  // Reliability state. All of it is only touched on error paths (plus
  // one pointer test per op), so clean runs stay schedule-identical.
  flash::FaultInjector* injector_ = nullptr;  // == config_.fault_injector
  RefreshListener refresh_;
  std::vector<std::uint32_t> spares_;  // bad-block credits per global LUN
  bool read_only_ = false;
  std::uint64_t blocks_retired_ = 0;
  std::uint64_t read_retries_ = 0;
  // Correctable reads per physical block since its last erase; entries
  // are dropped when the refresh fires (at most one per block).
  std::unordered_map<std::uint64_t, std::uint32_t> correctable_counts_;

  sim::ObjectPool<Op> ops_;  // recycled per-op records

  Histogram read_latency_;
  Histogram program_latency_;
  Histogram erase_latency_;
};

}  // namespace postblock::ssd

#endif  // POSTBLOCK_SSD_CONTROLLER_H_
