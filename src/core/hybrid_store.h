#ifndef POSTBLOCK_CORE_HYBRID_STORE_H_
#define POSTBLOCK_CORE_HYBRID_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "blocklayer/block_device.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/pcm_log.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "trace/tracer.h"

namespace postblock::core {

/// The paper's Section 3 storage architecture in one object: keep
/// synchronous and asynchronous persistence patterns separate (Mohan's
/// suggestion, ref [16]).
///
///   - SyncPersist(record): the commit-critical path. In *vision* mode
///     it is a PCM log append over the memory bus (hundreds of ns); in
///     *classic* mode it is a 4 KiB log-block write + flush through the
///     block device interface (hundreds of us) — records are padded to a
///     whole block because the interface has no smaller unit.
///   - SubmitAsync(request): lazy writes, prefetching, reads — always
///     the block-granular device path.
///
/// The async class is a host::HostInterface: typed commands flow to the
/// data path with the store's stream classification applied, so a
/// multi-queue block layer with stream_queues pins commit-critical WAL
/// traffic (wal_stream) and lazy traffic (async_stream) to different
/// software queues.
class HybridStore : public host::HostInterface {
 public:
  /// Vision wiring: sync -> PCM log, async -> `data_path`.
  HybridStore(sim::Simulator* sim, blocklayer::BlockDevice* data_path,
              PcmLog* pcm_log);

  /// Classic wiring: sync -> a reserved LBA region of `data_path`
  /// (round-robin log blocks, flush after every record), async -> the
  /// same device.
  HybridStore(sim::Simulator* sim, blocklayer::BlockDevice* data_path,
              Lba log_region_start, std::uint64_t log_region_blocks);

  HybridStore(const HybridStore&) = delete;
  HybridStore& operator=(const HybridStore&) = delete;

  bool vision_mode() const { return pcm_log_ != nullptr; }

  /// Durably persists one record; callback fires when it would survive
  /// power loss. `ctx` is the caller's trace identity (a WAL commit,
  /// say); with a tracer attached the whole persist — including the
  /// block-device write+flush of classic mode — becomes one kApp span.
  void SyncPersist(std::vector<std::uint8_t> record,
                   std::function<void(Status)> cb, trace::Ctx ctx = {});

  /// Attaches latency attribution: sync persists are recorded on a
  /// "sync-persist" track, and classic-mode log IOs carry the persist's
  /// span down the block stack.
  void set_tracer(trace::Tracer* tracer);

  /// Forwards to the data path (applying async_stream when the request
  /// is unclassified).
  void SubmitAsync(blocklayer::IoRequest request);

  /// host::HostInterface — block-expressible commands take the async
  /// path (with stream classification); hints and extended kinds pass
  /// through to the data path.
  void Execute(host::Command cmd) override;
  bool Supports(host::CommandKind kind) const override {
    return data_path_->Supports(kind);
  }
  /// Capability discovery: the data path's caps, plus the one thing
  /// this layer adds that no device below can claim — a synchronous
  /// byte-granular PCM persistence path (vision mode).
  host::DeviceCaps Caps() const override {
    host::DeviceCaps caps = data_path_->Caps();
    caps.pcm_sync = vision_mode();
    return caps;
  }
  void SetMigrationHandler(host::MigrationHandler handler) override {
    data_path_->SetMigrationHandler(std::move(handler));
  }

  /// Stream classification for queue pinning: classic-mode SyncPersist
  /// log write+flush carry `wal_stream`; unclassified async requests
  /// carry `async_stream`. Both default to 0 (off — no pinning).
  void set_streams(std::uint8_t wal_stream, std::uint8_t async_stream) {
    wal_stream_ = wal_stream;
    async_stream_ = async_stream;
  }

  /// All records whose SyncPersist completed (i.e. that would survive a
  /// crash), in persist order. Vision mode scans the PCM log region;
  /// classic mode reflects the log blocks on the device.
  std::vector<std::vector<std::uint8_t>> DurableRecords() const;

  /// Recovery's view: re-reads the classic log region through the data
  /// path and returns the longest intact prefix of durable records. A
  /// log block that reads back failed (uncorrectable media, even after
  /// every retry) or stale (token mismatch — overwritten by a wrapped
  /// log head) is a *torn point*: that record and everything after it
  /// are dropped, i.e. the log truncates at the first bad record
  /// instead of replaying past a hole. Vision mode completes with the
  /// PCM log as-is (the memory bus path has no flash error model).
  void RecoverRecords(
      std::function<void(std::vector<std::vector<std::uint8_t>>)> cb);

  /// Resets the log after a checkpoint. Durable when the callback fires.
  void TruncateLog(std::function<void(Status)> cb);

  blocklayer::BlockDevice* data_path() { return data_path_; }
  PcmLog* pcm_log() { return pcm_log_; }

  const Histogram& sync_latency() const { return sync_latency_; }
  const Counters& counters() const { return counters_; }

 private:
  /// One classic-log recovery scan. The pending read's completion owns
  /// it, so the scan is released with its last callback.
  struct RecoveryScan {
    std::size_t index = 0;
    std::vector<std::vector<std::uint8_t>> out;
    std::function<void(std::vector<std::vector<std::uint8_t>>)> cb;
  };
  /// Verifies the scan's next record (or completes the scan).
  void RecoverStep(std::unique_ptr<RecoveryScan> scan);

  sim::Simulator* sim_;
  blocklayer::BlockDevice* data_path_;
  PcmLog* pcm_log_ = nullptr;

  // Stream classification (0 = unclassified, no queue pinning).
  std::uint8_t wal_stream_ = 0;
  std::uint8_t async_stream_ = 0;

  // Classic-mode log region state.
  Lba log_region_start_ = 0;
  std::uint64_t log_region_blocks_ = 0;
  std::uint64_t log_head_block_ = 0;
  std::uint64_t next_log_token_ = 1;
  /// Classic mode: the records whose log-block write + flush completed.
  /// (Models reading the log region back; the device only stores tokens.)
  std::vector<std::vector<std::uint8_t>> classic_durable_;
  /// Where each classic_durable_ record landed (parallel vector):
  /// RecoverRecords re-reads these to verify the log is still intact.
  struct ClassicLogSlot {
    Lba lba = 0;
    std::uint64_t token = 0;
  };
  std::vector<ClassicLogSlot> classic_slots_;

  Histogram sync_latency_;
  Counters counters_;

  trace::Tracer* tracer_ = nullptr;
  std::uint32_t track_ = 0;  // "sync-persist" (host pid)
};

}  // namespace postblock::core

#endif  // POSTBLOCK_CORE_HYBRID_STORE_H_
