#ifndef POSTBLOCK_DB_STORAGE_MANAGER_H_
#define POSTBLOCK_DB_STORAGE_MANAGER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "blocklayer/block_layer.h"
#include "blocklayer/direct_driver.h"
#include "common/stats.h"
#include "core/hybrid_store.h"
#include "core/pcm_log.h"
#include "db/btree.h"
#include "db/buffer_pool.h"
#include "db/heap_file.h"
#include "db/host_map.h"
#include "db/page_image.h"
#include "db/wal.h"
#include "metrics/metrics.h"
#include "pcm/pcm_device.h"
#include "sim/inplace_callback.h"
#include "sim/object_pool.h"
#include "ssd/device.h"

namespace postblock::db {

/// How the database reaches persistent storage — the two sides of the
/// paper's argument:
///
///   kClassic — everything through the block device interface: WAL
///     records are padded to whole log blocks on the SSD and fenced with
///     flushes; checkpoints are plain page writes (torn-checkpoint
///     window included, as real systems must journal around).
///   kVision  — Section 3 wiring: synchronous WAL appends go to PCM over
///     the memory bus; data page IO takes the direct driver (no block
///     layer). What checkpoints look like depends on what the device
///     underneath speaks — discovered through Caps(), never by reading
///     its config:
///       * a page-map device executes the checkpoint as one atomic
///         write group;
///       * a post-block append device (Caps().append_regions > 0) gets
///         the full de-indirected data path: page IO runs over a
///         host-owned map (db::HostMap) speaking only the nameless
///         vocabulary, checkpoints are epoch-tagged nameless writes
///         with the meta page written last as the commit point, and
///         recovery rebuilds the host map from the device's LiveNames
///         scan (OOB owner stamps) before WAL replay.
enum class Wiring { kClassic = 0, kVision };

const char* WiringName(Wiring w);

struct StorageConfig {
  Wiring wiring = Wiring::kVision;
  std::size_t buffer_frames = 512;
  /// Classic mode: log blocks reserved at the top of the LBA space.
  std::uint64_t wal_region_blocks = 64;
  /// Vision mode: PCM log region size.
  std::uint64_t pcm_log_bytes = 8 * kMiB;
  blocklayer::BlockLayerConfig block_layer;  // classic data path
};

/// A small but complete storage manager: buffer pool + WAL + B+-tree +
/// heap file, with group commit, checkpoints, crash simulation and
/// recovery. The deliverable the paper asks database researchers to
/// rethink — built twice over the same simulated hardware so the two
/// architectures can race (bench E7/E8).
class StorageManager {
 public:
  using StatusCb = sim::InplaceFunction<void(Status)>;
  using GetCb = BTree::GetCb;

  StorageManager(sim::Simulator* sim, ssd::Device* device,
                 const StorageConfig& config);
  ~StorageManager();

  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  /// Formats a fresh database (meta + tree + heap) and checkpoints.
  void Bootstrap(StatusCb cb);

  /// Single-op transactions.
  void Put(std::uint64_t key, std::uint64_t value, StatusCb cb);
  void Delete(std::uint64_t key, StatusCb cb);
  void Get(std::uint64_t key, GetCb cb);
  void Scan(std::uint64_t lo, std::uint64_t hi, BTree::ScanCb cb) {
    tree_->Scan(lo, hi, std::move(cb));
  }

  /// Multi-op transaction: one WAL record, ops applied after it is
  /// durable (deferred update; commit acknowledged at WAL durability).
  void CommitBatch(std::vector<WalOp> ops, StatusCb cb);

  /// Flushes dirty pages + meta (atomically in vision mode), truncates
  /// the WAL.
  void Checkpoint(StatusCb cb);

  /// Simulates power loss: device loses volatile state; every cached
  /// frame and in-flight completion is gone (no callback of an op in
  /// flight ever runs). Call Recover() next.
  Status SimulateCrash();

  /// Rebuilds from the last checkpoint + WAL replay.
  void Recover(StatusCb cb);

  BufferPool* buffer_pool() { return pool_.get(); }
  /// Non-null in vision wiring over an append-mode device: the
  /// host-owned page-id -> name mapping layer.
  HostMap* host_map() { return host_map_.get(); }
  /// Checkpoint epoch of the last committed checkpoint.
  std::uint64_t ckpt_seq() const { return ckpt_seq_; }
  Wal* wal() { return wal_.get(); }
  BTree* tree() { return tree_.get(); }
  HeapFile* heap() { return heap_.get(); }
  core::HybridStore* store() { return store_.get(); }
  const Counters& counters() const { return counters_; }
  /// Commit (WAL durability) latency distribution.
  const Histogram& commit_latency() const { return commit_latency_; }

  /// Registers the DB layer's time-series streams: transaction/commit
  /// rates, WAL bytes, buffer-pool hit rate, B+-tree page IOs, plus a
  /// windowed commit-latency histogram. Call once, after construction,
  /// with the same registry attached to the device stack below.
  void RegisterMetrics(metrics::MetricRegistry* m);

 private:
  friend struct RecoveryDriver;

  /// One transaction, pooled: its WAL commit, then the deferred apply of
  /// its ops, one tree op at a time. Every continuation captures
  /// {this, op}; `batch.ops` keeps its capacity across transactions.
  struct TxnOp {
    WalBatch batch;
    std::size_t next = 0;  // next op to apply
    SimTime start = 0;
    StatusCb cb;
  };
  /// A fan-out of page IOs (a checkpoint's flushes, recovery's junk
  /// frees), pooled: `cb` runs after the last one.
  struct PageBatch {
    StatusCb cb;
    std::size_t remaining = 0;
    Status first_error;
    std::vector<PageId> ids;
  };

  PageId AllocPage() { return next_page_id_++; }
  void WriteMetaInto(Frame* frame);
  void ReadMetaFrom(Frame* frame);
  /// Logs `op` (WAL durability), then applies it.
  void Commit(TxnOp* op);
  void OnCommitted(TxnOp* op, Status st);
  /// Applies op->batch.ops[op->next..] to the tree, in order.
  void ApplyNext(TxnOp* op);
  void FinishTxn(TxnOp* op, Status st);
  void RebuildVolatileState();
  std::uint64_t DataRegionBlocks() const;
  void OnMetaPinned(PageBatch* op, StatusOr<Frame*> meta);
  /// A checkpoint's pages are durable (or failed): truncate the WAL.
  void AfterFlush(PageBatch* op, Status st);
  void FinishBatch(PageBatch* op, Status st);
  /// Post-block checkpoint: epoch-tagged nameless writes of every dirty
  /// data page, then the meta page last (the commit point), then frees
  /// of the superseded copies.
  void CheckpointNameless(PageBatch* op);
  void WriteMetaLast(PageBatch* op, Status st);
  /// Post-crash: rebuilds the host map from the device's LiveNames scan
  /// (adopt the newest copy with epoch <= the committed checkpoint,
  /// free orphans and superseded copies).
  void RebuildHostMap(StatusCb cb);
  /// The common recovery tail: read the meta page, replay the WAL.
  void RecoverFromMeta(StatusCb cb);

  sim::Simulator* sim_;
  ssd::Device* device_;
  StorageConfig config_;

  // Vision-mode substrate.
  std::unique_ptr<pcm::PcmDevice> pcm_;
  std::unique_ptr<core::PcmLog> pcm_log_;

  // Data path (one of the two).
  std::unique_ptr<blocklayer::BlockLayer> block_layer_;
  std::unique_ptr<blocklayer::DirectDriver> direct_;

  std::unique_ptr<core::HybridStore> store_;
  /// Vision wiring over an append-mode device only (capability-probed).
  std::unique_ptr<HostMap> host_map_;
  PageImageStore images_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<BTree> tree_;
  std::unique_ptr<HeapFile> heap_;

  PageId next_page_id_ = 1;  // page 0 = meta
  std::uint64_t next_txn_id_ = 1;
  /// Committed checkpoint epoch (nameless checkpoints stamp S+1 while
  /// building, bump to S+1 once the meta page is durable).
  std::uint64_t ckpt_seq_ = 0;
  sim::ObjectPool<TxnOp> txns_;
  sim::ObjectPool<PageBatch> batches_;
  std::vector<Frame*> dirty_frames_;  // checkpoint scratch
  Counters counters_;
  Histogram commit_latency_;

  // Pushed in parallel with counters_ ("txns") and commit_latency_ for
  // the sampler-vs-Counters cross-check and windowed commit p99.
  metrics::MetricRegistry* metrics_ = nullptr;
  metrics::Id m_txns_ = metrics::kInvalidId;
  metrics::Id m_commit_lat_ = metrics::kInvalidId;
};

}  // namespace postblock::db

#endif  // POSTBLOCK_DB_STORAGE_MANAGER_H_
