#ifndef POSTBLOCK_SSD_DEVICE_H_
#define POSTBLOCK_SSD_DEVICE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "blocklayer/block_device.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "ftl/append_ftl.h"
#include "ftl/ftl.h"
#include "ftl/page_ftl.h"
#include "metrics/metrics.h"
#include "sim/object_pool.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/controller.h"
#include "ssd/write_buffer.h"
#include "trace/trace.h"
#include "trace/tracer.h"

namespace postblock::ssd {

/// A complete simulated SSD exposed through the legacy block device
/// interface: controller + FTL (per Config::ftl) + optional safe write
/// cache. This is the device every myth bench and the "conservative"
/// DB wiring talk to.
class Device : public blocklayer::BlockDevice {
 public:
  Device(sim::Simulator* sim, const Config& config);

  /// Sharded mode: the firmware (this object, the FTL, the write
  /// buffer, all latency/counter state) lives on the router's
  /// controller shard; each channel's bus and LUN resources live on
  /// that channel's shard, with GC relocation traffic riding the same
  /// dispatch/completion edges as host ops. Submit()/Execute() must be
  /// called from controller-shard event context (or before the engine
  /// runs); introspection accessors are safe between engine runs. The
  /// committed schedule is byte-identical at every engine worker count.
  Device(ShardRouter* router, const Config& config,
         const std::vector<trace::Tracer*>& channel_tracers = {});

  ~Device() override = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  // --- BlockDevice -------------------------------------------------
  std::uint64_t num_blocks() const override { return ftl_->user_pages(); }
  std::uint32_t block_bytes() const override {
    return config_.geometry.page_size_bytes;
  }
  void Submit(blocklayer::IoRequest request) override;
  /// One doorbell ring admitting the whole batch: the fixed controller
  /// overhead is paid once, then commands are fetched from the SQ at
  /// doorbell_cmd_ns intervals — admission is pipelined, not serial.
  void SubmitBatch(std::vector<blocklayer::IoRequest> batch) override;
  const Counters& counters() const override { return counters_; }

  /// Typed host commands (host::HostInterface). Beyond the block
  /// vocabulary, the device natively executes atomic write groups and
  /// the nameless vocabulary (write/read/free) when running the
  /// page-mapping FTL — and, under FtlKind::kVisionAppend, *only* the
  /// post-block vocabulary: the block kinds are refused with a typed
  /// Unimplemented because the device has no logical address space.
  void Execute(host::Command cmd) override;
  bool Supports(host::CommandKind kind) const override;
  /// Identify: adds the truths only the device knows (append regions,
  /// live mapping-table DRAM) to the derivable command mask.
  host::DeviceCaps Caps() const override;
  /// Host migration handler for named pages (old name -> new name).
  /// Registration is lazy on both FTL paths so un-wired stacks keep
  /// byte-identical schedules.
  void SetMigrationHandler(host::MigrationHandler handler) override;

  /// Completions routed to multi-queue submitters, per software queue
  /// (read from IoCallback::queue_id). 0 for queues never seen.
  std::uint64_t cq_posts(std::uint16_t queue_id) const {
    return queue_id < cq_posts_.size() ? cq_posts_[queue_id] : 0;
  }

  // --- Introspection ------------------------------------------------
  /// The firmware's event loop (the controller shard's in sharded mode).
  sim::Simulator* sim() { return sim_; }
  /// Non-null iff this device runs on a sharded engine.
  ShardRouter* router() { return router_; }
  const Config& config() const { return config_; }
  Controller* controller() { return controller_.get(); }
  ftl::Ftl* ftl() { return ftl_.get(); }
  /// Non-null when Config::ftl is kPageMap (extended vision commands:
  /// atomic writes, nameless writes, power-cycle recovery).
  ftl::PageFtl* page_ftl() { return page_ftl_; }
  /// Non-null when Config::ftl is kVisionAppend (host-managed physical
  /// append; the block vocabulary is refused).
  ftl::AppendFtl* append_ftl() { return append_ftl_; }
  /// Control-path (admin) enumeration of live host-managed pages with
  /// their OOB owner stamps — the post-crash scan hosts rebuild their
  /// mapping from. Empty unless running kVisionAppend.
  std::vector<ftl::AppendFtl::LiveName> LiveNames() const {
    return append_ftl_ != nullptr
               ? append_ftl_->LiveNames()
               : std::vector<ftl::AppendFtl::LiveName>{};
  }
  WriteBuffer* write_buffer() { return write_buffer_.get(); }

  /// Host-visible latency distributions.
  const Histogram& read_latency() const { return read_latency_; }
  const Histogram& write_latency() const { return write_latency_; }

  double WriteAmplification() const { return ftl_->WriteAmplification(); }

  /// Simulates power loss + reboot. Un-drained buffered writes vanish
  /// unless the buffer is battery-backed; the FTL rebuilds its mapping
  /// from OOB metadata. Supported for the page-mapping and
  /// vision-append FTLs.
  Status PowerCycle();

 private:
  /// One admitted host IO (or nameless command) and its page tracker,
  /// in a device-owned pooled slot: page-op continuations capture only
  /// {this, slot, page index}.
  struct IoSlot {
    blocklayer::IoRequest request;
    std::uint64_t epoch = 0;
    /// This device minted the request's span (no layer above is
    /// tracing), so it records the end-to-end kIo span.
    bool root = false;
    SimTime submit_t = 0;  // when Submit() saw it (kIo start)
    SimTime start = 0;     // when page ops fanned out
    std::uint32_t remaining = 0;  // page ops not yet complete
    Status first_error;
    std::vector<std::uint64_t> tokens;  // read payloads, by page
  };

  /// Fans the admitted request out into page ops.
  void SubmitPageOps(IoSlot* slot);
  /// One page op of `slot` finished; the last one completes the IO.
  void OnPage(IoSlot* slot, std::uint32_t index, Status st,
              std::uint64_t token);
  /// Recycles `slot`, then delivers `result` to its callback.
  void FinishSlot(IoSlot* slot, blocklayer::IoResult result);

  /// Common admission path: validation, trace, then page-op fanout
  /// after controller_overhead_ns + admit_delay (the extra delay is the
  /// batched doorbell's per-command fetch offset).
  void Admit(blocklayer::IoRequest request, SimTime admit_delay);

  void ExecuteAtomicGroup(host::Command cmd);
  void ExecuteNamelessWrite(host::Command cmd);
  void ExecuteNamelessRead(host::Command cmd);
  void ExecuteNamelessFree(host::Command cmd);
  /// Lazily registers this device on its FTL's migration listener seam
  /// (first nameless write or handler install) and fans relocations out
  /// to the host handler.
  void EnsureMigrationListener();
  void OnPageFtlMigration(Lba lba, const flash::Ppa& old_ppa,
                          const flash::Ppa& new_ppa);

  bool Traced() const { return tracer_ != nullptr && tracer_->enabled(); }

  /// Shared ctor body (FTL, write buffer, metrics, trace track).
  void Init();

  sim::Simulator* sim_;
  ShardRouter* router_ = nullptr;  // non-null iff sharded mode
  Config config_;
  std::uint64_t epoch_ = 0;  // bumped by PowerCycle; drops stale events
  std::unique_ptr<Controller> controller_;
  std::unique_ptr<ftl::Ftl> ftl_;
  ftl::PageFtl* page_ftl_ = nullptr;      // borrowed view into ftl_
  ftl::AppendFtl* append_ftl_ = nullptr;  // borrowed view into ftl_
  std::unique_ptr<WriteBuffer> write_buffer_;

  sim::ObjectPool<IoSlot> io_slots_;

  Histogram read_latency_;
  Histogram write_latency_;
  Counters counters_;

  /// Per-software-queue completion counts (indexed by the submitting
  /// queue's IoCallback::queue_id; grows on demand). Deliberately not a
  /// Counters entry so default counter dumps are unchanged.
  std::vector<std::uint64_t> cq_posts_;

  /// Nameless vocabulary on the page-mapping FTL: the device *emulates*
  /// physical append by parking each nameless page in a hidden LBA slot
  /// (lowest-unused-first, recycled on free) and reporting the slot's
  /// current physical address as the name. name_to_slot_ resolves
  /// kNamelessRead/kNamelessFree and is rewritten when GC/WL moves a
  /// slot (the migration handler tells the host). The vision-append FTL
  /// needs none of this: names *are* physical there.
  Lba nameless_next_ = 0;
  std::deque<Lba> nameless_free_;
  std::map<std::uint64_t, Lba> name_to_slot_;
  std::map<Lba, std::uint64_t> slot_to_name_;
  bool migration_listener_registered_ = false;
  host::MigrationHandler migration_handler_;

  trace::Tracer* tracer_ = nullptr;  // == config_.tracer
  std::uint32_t dev_track_ = 0;      // "ssd-device" (host pid)

  // Pushed in parallel with counters_ ("requests"/"completions") so the
  // sampler's final row cross-checks against the device Counters.
  metrics::MetricRegistry* metrics_ = nullptr;  // == config_.metrics
  metrics::Id m_requests_ = metrics::kInvalidId;
  metrics::Id m_completions_ = metrics::kInvalidId;
  metrics::Id m_read_lat_ = metrics::kInvalidId;
  metrics::Id m_write_lat_ = metrics::kInvalidId;
};

/// Builds the FTL named by `config.ftl` over `controller`.
std::unique_ptr<ftl::Ftl> MakeFtl(Controller* controller);

}  // namespace postblock::ssd

#endif  // POSTBLOCK_SSD_DEVICE_H_
