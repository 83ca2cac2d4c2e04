#include "db/storage_manager.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace postblock::db {

namespace {
constexpr std::uint64_t kMetaMagic = 0x504f535442444233ull;  // "POSTBDB3"
// Meta page field offsets.
constexpr std::size_t kOffMagic = 8;
constexpr std::size_t kOffRoot = 16;
constexpr std::size_t kOffHeapFirst = 24;
constexpr std::size_t kOffHeapLast = 32;
constexpr std::size_t kOffNextPage = 40;
}  // namespace

const char* WiringName(Wiring w) {
  return w == Wiring::kClassic ? "classic" : "vision";
}

StorageManager::StorageManager(sim::Simulator* sim, ssd::Device* device,
                               const StorageConfig& config)
    : sim_(sim), device_(device), config_(config) {
  if (config_.wiring == Wiring::kVision) {
    pcm::PcmConfig pcm_cfg;
    pcm_cfg.capacity_bytes = config_.pcm_log_bytes;
    pcm_ = std::make_unique<pcm::PcmDevice>(sim_, pcm_cfg);
    pcm_log_ = std::make_unique<core::PcmLog>(sim_, pcm_.get(), 0,
                                              config_.pcm_log_bytes);
    direct_ = std::make_unique<blocklayer::DirectDriver>(sim_, device_);
    // Capability probe, not config peeking: a device that advertises
    // append regions has no logical address space, so page IO must run
    // over the host-owned map speaking the nameless vocabulary.
    if (direct_->Caps().append_regions > 0) {
      host_map_ = std::make_unique<HostMap>(sim_, direct_.get(),
                                            device_->num_blocks(),
                                            device_->block_bytes());
    }
    store_ = std::make_unique<core::HybridStore>(sim_, direct_.get(),
                                                 pcm_log_.get());
  } else {
    block_layer_ = std::make_unique<blocklayer::BlockLayer>(
        sim_, device_, config_.block_layer);
    store_ = std::make_unique<core::HybridStore>(
        sim_, block_layer_.get(),
        /*log_region_start=*/DataRegionBlocks(),
        /*log_region_blocks=*/config_.wal_region_blocks);
  }
  RebuildVolatileState();
}

StorageManager::~StorageManager() = default;

std::uint64_t StorageManager::DataRegionBlocks() const {
  const std::uint64_t total = device_->num_blocks();
  return config_.wiring == Wiring::kClassic
             ? total - config_.wal_region_blocks
             : total;
}

void StorageManager::RebuildVolatileState() {
  if (pool_ == nullptr) {
    blocklayer::BlockDevice* data_path =
        config_.wiring == Wiring::kVision
            ? (host_map_ != nullptr
                   ? static_cast<blocklayer::BlockDevice*>(host_map_.get())
                   : static_cast<blocklayer::BlockDevice*>(direct_.get()))
            : static_cast<blocklayer::BlockDevice*>(block_layer_.get());
    pool_ = std::make_unique<BufferPool>(sim_, data_path, &images_,
                                         config_.buffer_frames);
  }
  wal_ = std::make_unique<Wal>(store_.get());
  tree_ = std::make_unique<BTree>(sim_, pool_.get(),
                                  [this]() { return AllocPage(); });
  heap_ = std::make_unique<HeapFile>(sim_, pool_.get(),
                                     [this]() { return AllocPage(); });
}

void StorageManager::WriteMetaInto(Frame* frame) {
  std::fill(frame->bytes.begin(), frame->bytes.end(), 0);
  PageView view(&frame->bytes);
  view.set_type(PageType::kMeta);
  view.WriteU64(kOffMagic, kMetaMagic);
  view.WriteU64(kOffRoot, tree_->root());
  view.WriteU64(kOffHeapFirst, heap_->first_page());
  view.WriteU64(kOffHeapLast, heap_->tail_page());
  view.WriteU64(kOffNextPage, next_page_id_);
}

void StorageManager::ReadMetaFrom(Frame* frame) {
  PageView view(&frame->bytes);
  tree_->Open(view.ReadU64(kOffRoot));
  heap_->Open(view.ReadU64(kOffHeapFirst), view.ReadU64(kOffHeapLast));
  next_page_id_ = view.ReadU64(kOffNextPage);
}

void StorageManager::Bootstrap(StatusCb cb) {
  counters_.Increment("bootstraps");
  tree_->Create([this, cb = std::move(cb)](Status st) mutable {
    if (!st.ok()) {
      cb(std::move(st));
      return;
    }
    heap_->Create([this, cb = std::move(cb)](Status st2) mutable {
      if (!st2.ok()) {
        cb(std::move(st2));
        return;
      }
      Checkpoint(std::move(cb));
    });
  });
}

void StorageManager::Put(std::uint64_t key, std::uint64_t value,
                         StatusCb cb) {
  TxnOp* op = txns_.Acquire();
  op->batch.ops.push_back(WalOp{WalOp::Kind::kPut, key, value});
  op->cb = std::move(cb);
  Commit(op);
}

void StorageManager::Delete(std::uint64_t key, StatusCb cb) {
  TxnOp* op = txns_.Acquire();
  op->batch.ops.push_back(WalOp{WalOp::Kind::kDelete, key, 0});
  op->cb = std::move(cb);
  Commit(op);
}

void StorageManager::Get(std::uint64_t key, GetCb cb) {
  counters_.Increment("gets");
  tree_->Get(key, std::move(cb));
}

void StorageManager::CommitBatch(std::vector<WalOp> ops, StatusCb cb) {
  TxnOp* op = txns_.Acquire();
  op->batch.ops = std::move(ops);
  op->cb = std::move(cb);
  Commit(op);
}

void StorageManager::Commit(TxnOp* op) {
  counters_.Increment("txns");
  if (metrics_ != nullptr) metrics_->Increment(m_txns_);
  op->batch.txn_id = next_txn_id_++;
  op->start = sim_->Now();
  auto committed = [this, op](Status st) { OnCommitted(op, std::move(st)); };
  static_assert(Wal::StatusCb::fits<decltype(committed)>());
  wal_->Commit(op->batch, std::move(committed));
}

void StorageManager::OnCommitted(TxnOp* op, Status st) {
  const SimTime latency = sim_->Now() - op->start;
  commit_latency_.Record(latency);
  if (metrics_ != nullptr) metrics_->Record(m_commit_lat_, latency);
  if (!st.ok()) {
    FinishTxn(op, std::move(st));
    return;
  }
  // Deferred update: the transaction is durable (redo-logged); now
  // apply it to the tree in memory.
  op->next = 0;
  ApplyNext(op);
}

void StorageManager::ApplyNext(TxnOp* op) {
  if (op->next >= op->batch.ops.size()) {
    FinishTxn(op, Status::Ok());
    return;
  }
  const WalOp& w = op->batch.ops[op->next++];
  auto applied = [this, op](Status st) {
    if (!st.ok()) {
      FinishTxn(op, std::move(st));
      return;
    }
    ApplyNext(op);
  };
  static_assert(BTree::StatusCb::fits<decltype(applied)>());
  if (w.kind == WalOp::Kind::kPut) {
    tree_->Put(w.key, w.value, std::move(applied));
  } else {
    tree_->Delete(w.key, std::move(applied));
  }
}

void StorageManager::FinishTxn(TxnOp* op, Status st) {
  StatusCb cb = std::move(op->cb);
  op->batch.ops.clear();
  txns_.Recycle(op);
  cb(std::move(st));
}

void StorageManager::Checkpoint(StatusCb cb) {
  counters_.Increment("checkpoints");
  PageBatch* op = batches_.Acquire();
  op->cb = std::move(cb);
  // Stage the meta page alongside the data pages so the whole snapshot
  // lands together.
  auto pinned = [this, op](StatusOr<Frame*> meta) {
    OnMetaPinned(op, std::move(meta));
  };
  static_assert(BufferPool::PinCallback::fits<decltype(pinned)>());
  pool_->Pin(0, std::move(pinned));
}

void StorageManager::OnMetaPinned(PageBatch* op, StatusOr<Frame*> meta) {
  if (!meta.ok()) {
    FinishBatch(op, meta.status());
    return;
  }
  WriteMetaInto(*meta);
  pool_->Unpin(0, /*dirty=*/true);

  if (config_.wiring == Wiring::kVision && host_map_ != nullptr) {
    // Post-block checkpoint: no atomic-write command needed — the
    // epoch protocol makes the meta page the commit point.
    CheckpointNameless(op);
    return;
  }
  if (config_.wiring == Wiring::kVision && device_->page_ftl() != nullptr) {
    // Atomic checkpoint: every dirty page + meta flips visibility as
    // one group — no torn-checkpoint window (the paper's atomic-write
    // command, ref [17]).
    std::vector<std::pair<Lba, std::uint64_t>> group;
    op->ids.clear();
    pool_->DirtyFrames(&dirty_frames_);
    for (Frame* frame : dirty_frames_) {
      group.emplace_back(frame->id, images_.Register(frame->bytes));
      op->ids.push_back(frame->id);
    }
    counters_.Add("checkpoint_pages", group.size());
    device_->page_ftl()->WriteAtomic(std::move(group), [this, op](Status st) {
      if (st.ok()) {
        for (PageId id : op->ids) pool_->MarkClean(id);
      }
      AfterFlush(op, std::move(st));
    });
    return;
  }
  // Classic: plain write-back of each dirty page + flush barrier.
  pool_->FlushAll([this, op](Status st) { AfterFlush(op, std::move(st)); });
}

void StorageManager::AfterFlush(PageBatch* op, Status st) {
  if (!st.ok()) {
    FinishBatch(op, std::move(st));
    return;
  }
  wal_->Truncate([this, op](Status done) { FinishBatch(op, std::move(done)); });
}

void StorageManager::FinishBatch(PageBatch* op, Status st) {
  StatusCb cb = std::move(op->cb);
  op->ids.clear();
  batches_.Recycle(op);
  cb(std::move(st));
}

void StorageManager::CheckpointNameless(PageBatch* op) {
  // Every page in this checkpoint is written under epoch S+1 while the
  // committed checkpoint is still S; old copies are retired, not freed.
  // The meta page (owner 0) is written *last*: the instant it lands,
  // epoch S+1 is the recovery image. Only then do the retired copies
  // die — a crash anywhere earlier leaves epoch S fully intact.
  host_map_->set_epoch(ckpt_seq_ + 1);
  op->ids.clear();
  pool_->DirtyFrames(&dirty_frames_);
  for (Frame* frame : dirty_frames_) {
    if (frame->id != 0) op->ids.push_back(frame->id);
  }
  std::sort(op->ids.begin(), op->ids.end());
  counters_.Add("checkpoint_pages", op->ids.size() + 1);
  if (op->ids.empty()) {
    WriteMetaLast(op, Status::Ok());
    return;
  }
  op->remaining = op->ids.size();
  op->first_error = Status::Ok();
  for (PageId id : op->ids) {
    auto flushed = [this, op](Status st) {
      if (!st.ok() && op->first_error.ok()) op->first_error = std::move(st);
      if (--op->remaining == 0) WriteMetaLast(op, op->first_error);
    };
    static_assert(BufferPool::StatusCb::fits<decltype(flushed)>());
    pool_->FlushPage(id, std::move(flushed));
  }
}

void StorageManager::WriteMetaLast(PageBatch* op, Status st) {
  if (!st.ok()) {
    AfterFlush(op, std::move(st));
    return;
  }
  pool_->FlushPage(0, [this, op](Status st2) {
    if (!st2.ok()) {
      AfterFlush(op, std::move(st2));
      return;
    }
    ++ckpt_seq_;  // the commit point is durable
    host_map_->FreeRetired(
        [this, op](Status st3) { AfterFlush(op, std::move(st3)); });
  });
}

Status StorageManager::SimulateCrash() {
  counters_.Increment("crashes");
  // Power the stack down from the bottom up: each layer's epoch bump
  // silences its in-flight completions, so nothing half-finished leaks
  // into the post-crash world.
  PB_RETURN_IF_ERROR(device_->PowerCycle());
  if (pcm_ != nullptr) {
    pcm_->PowerCycle();
    pcm_log_->ResetAfterCrash();
  }
  store_->PowerCycle();
  if (direct_ != nullptr) direct_->PowerCycle();
  if (block_layer_ != nullptr) block_layer_->PowerCycle();
  pool_->PowerCycle();
  // The host-owned map is DRAM: gone. Recover() rebuilds it from the
  // device's live-names scan.
  if (host_map_ != nullptr) host_map_->Crash();
  // Every transaction and checkpoint in flight died with the stack
  // below, whose callbacks into them will never run.
  txns_.ReleaseAll();
  batches_.ReleaseAll();
  // Volatile host objects (tree/heap/wal handles) are rebuilt empty;
  // Recover() re-attaches them to the durable state.
  RebuildVolatileState();
  return Status::Ok();
}

void StorageManager::RegisterMetrics(metrics::MetricRegistry* m) {
  metrics_ = m;
  m_txns_ = m->AddCounter("db.txns");
  m_commit_lat_ = m->AddHistogram("db.commit_lat_ns");
  m->AddPolledCounter("db.gets",
                      [this] { return counters_.Get("gets"); });
  m->AddPolledCounter("db.checkpoints",
                      [this] { return counters_.Get("checkpoints"); });
  // WAL: commit rate and logical bytes synced through the store (the
  // classic-mode padding overhead is sync_padded_bytes - sync_bytes).
  m->AddPolledCounter("wal.commits", [this] {
    return wal_->counters().Get("commits");
  });
  m->AddPolledCounter("wal.ops_logged", [this] {
    return wal_->counters().Get("ops_logged");
  });
  m->AddPolledCounter("wal.bytes", [this] {
    return store_->counters().Get("sync_bytes");
  });
  m->AddPolledCounter("wal.padded_bytes", [this] {
    return store_->counters().Get("sync_padded_bytes");
  });
  static constexpr const char* kPool[] = {"hits", "misses", "evictions",
                                          "writebacks"};
  for (const char* name : kPool) {
    m->AddPolledCounter(std::string("bp.") + name, [this, name] {
      return pool_->counters().Get(name);
    });
  }
  m->AddGauge("bp.hit_rate", [this] {
    const double hits =
        static_cast<double>(pool_->counters().Get("hits"));
    const double misses =
        static_cast<double>(pool_->counters().Get("misses"));
    return hits + misses == 0 ? 0.0 : hits / (hits + misses);
  });
  static constexpr const char* kTree[] = {"gets", "puts", "deletes",
                                          "node_splits"};
  for (const char* name : kTree) {
    m->AddPolledCounter(std::string("bt.") + name, [this, name] {
      return tree_->counters().Get(name);
    });
  }
  // Vision-mode substrate registers itself; the classic-mode block
  // layer registers at construction via StorageConfig::block_layer
  // .metrics (ctor-time wiring, like the device's Config::metrics).
  if (direct_ != nullptr) direct_->RegisterMetrics(m);
  if (pcm_ != nullptr) pcm_->RegisterMetrics(m);
}

}  // namespace postblock::db
