#include "core/hybrid_store.h"

#include <memory>
#include <utility>

namespace postblock::core {

HybridStore::HybridStore(sim::Simulator* sim,
                         blocklayer::BlockDevice* data_path, PcmLog* pcm_log)
    : sim_(sim), data_path_(data_path), pcm_log_(pcm_log) {}

HybridStore::HybridStore(sim::Simulator* sim,
                         blocklayer::BlockDevice* data_path,
                         Lba log_region_start,
                         std::uint64_t log_region_blocks)
    : sim_(sim),
      data_path_(data_path),
      log_region_start_(log_region_start),
      log_region_blocks_(log_region_blocks) {}

void HybridStore::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    track_ = tracer_->RegisterTrack(trace::kPidHost, "sync-persist");
  }
}

void HybridStore::SyncPersist(const std::vector<std::uint8_t>& record,
                              StatusCb cb, trace::Ctx ctx) {
  counters_.Increment("sync_persists");
  counters_.Add("sync_bytes", record.size());
  PersistOp* op = persists_.Acquire();
  op->start = sim_->Now();
  op->cb = std::move(cb);
  // Trace identity of this persist: inherit the caller's span or mint
  // one, and record the whole commit-critical path as a kApp span when
  // it completes. Classic mode threads the span through the write+flush
  // below, so the trace shows what the block stack cost the commit.
  op->span = ctx.span;
  if (tracer_ != nullptr && tracer_->enabled() && op->span == 0) {
    op->span = tracer_->NewSpan();
  }
  const std::uint64_t epoch = epoch_;
  if (pcm_log_ != nullptr) {
    auto appended = [this, op, epoch](StatusOr<Lsn> r) {
      if (epoch != epoch_) return;
      FinishPersist(op, r.ok() ? Status::Ok() : r.status(),
                    /*traced=*/true);
    };
    static_assert(PcmLog::AppendCallback::fits<decltype(appended)>());
    pcm_log_->Append(record, std::move(appended));
    return;
  }
  // Classic: one whole log block per record (the interface has no
  // smaller write unit), then a flush barrier to defeat the volatile
  // cache — this is what WAL-on-SSD actually costs.
  counters_.Add("sync_padded_bytes",
                data_path_->block_bytes() > record.size()
                    ? data_path_->block_bytes() - record.size()
                    : 0);
  op->lba = log_region_start_ + (log_head_block_++ % log_region_blocks_);
  op->token = next_log_token_++;
  op->record.assign(record.begin(), record.end());
  blocklayer::IoRequest write;
  write.op = blocklayer::IoOp::kWrite;
  write.lba = op->lba;
  write.nblocks = 1;
  write.tokens = {op->token};
  // Commit-critical: jumps lazy page flushes under a priority scheduler
  // (ref [13]).
  write.priority = 1;
  write.stream = wal_stream_;
  write.span = op->span;
  auto written = [this, op, epoch](const blocklayer::IoResult& wr) {
    if (epoch != epoch_) return;
    OnClassicWrite(op, wr);
  };
  static_assert(blocklayer::IoCallback::fits<decltype(written)>());
  write.on_complete = std::move(written);
  data_path_->Submit(std::move(write));
}

void HybridStore::OnClassicWrite(PersistOp* op,
                                 const blocklayer::IoResult& wr) {
  if (!wr.status.ok()) {
    FinishPersist(op, wr.status, /*traced=*/false);
    return;
  }
  blocklayer::IoRequest flush;
  flush.op = blocklayer::IoOp::kFlush;
  flush.nblocks = 1;
  flush.stream = wal_stream_;
  flush.span = op->span;
  const std::uint64_t epoch = epoch_;
  flush.on_complete = [this, op, epoch](const blocklayer::IoResult& fr) {
    if (epoch != epoch_) return;
    if (fr.status.ok()) {
      // The record is now beyond the volatile cache: durable.
      classic_durable_.push_back(std::move(op->record));
      classic_slots_.push_back(ClassicLogSlot{op->lba, op->token});
    }
    FinishPersist(op, fr.status, /*traced=*/true);
  };
  data_path_->Submit(std::move(flush));
}

void HybridStore::FinishPersist(PersistOp* op, Status st, bool traced) {
  sync_latency_.Record(sim_->Now() - op->start);
  if (traced && tracer_ != nullptr && op->span != 0) {
    tracer_->Record(trace::Stage::kApp, trace::Origin::kHostWrite, op->span,
                    0, track_, op->start, sim_->Now());
  }
  StatusCb cb = std::move(op->cb);
  op->record.clear();
  persists_.Recycle(op);
  cb(std::move(st));
}

void HybridStore::PowerCycle() {
  ++epoch_;
  persists_.ReleaseAll();
}

std::vector<std::vector<std::uint8_t>> HybridStore::DurableRecords() const {
  if (pcm_log_ != nullptr) return pcm_log_->RecoverAll();
  return classic_durable_;
}

void HybridStore::RecoverRecords(RecordsCb cb) {
  if (pcm_log_ != nullptr) {
    auto records = pcm_log_->RecoverAll();
    sim_->Schedule(0, [cb = std::move(cb),
                       records = std::move(records)]() mutable {
      cb(std::move(records));
    });
    return;
  }
  auto scan = std::make_unique<RecoveryScan>();
  scan->cb = std::move(cb);
  RecoverStep(std::move(scan));
}

void HybridStore::RecoverStep(std::unique_ptr<RecoveryScan> scan) {
  if (scan->index >= classic_slots_.size()) {
    scan->cb(std::move(scan->out));
    return;
  }
  const ClassicLogSlot slot = classic_slots_[scan->index];
  blocklayer::IoRequest read;
  read.op = blocklayer::IoOp::kRead;
  read.lba = slot.lba;
  read.nblocks = 1;
  read.priority = 1;
  read.on_complete = [this, scan = std::move(scan),
                      slot](const blocklayer::IoResult& r) mutable {
    if (!r.status.ok() || r.tokens.empty() || r.tokens[0] != slot.token) {
      // Torn point: the record at index is unreadable (or its block was
      // reclaimed by a wrapped log head). Everything after it is suspect
      // too — truncate here rather than replay past a hole.
      counters_.Increment("log_torn_truncations");
      scan->cb(std::move(scan->out));
      return;
    }
    scan->out.push_back(classic_durable_[scan->index]);
    ++scan->index;
    RecoverStep(std::move(scan));
  };
  counters_.Increment("log_recovery_reads");
  data_path_->Submit(std::move(read));
}

void HybridStore::TruncateLog(StatusCb cb) {
  if (pcm_log_ != nullptr) {
    pcm_log_->Truncate(std::move(cb));
    return;
  }
  classic_durable_.clear();
  classic_slots_.clear();
  log_head_block_ = 0;
  sim_->Schedule(0, [cb = std::move(cb)]() { cb(Status::Ok()); });
}

void HybridStore::SubmitAsync(blocklayer::IoRequest request) {
  counters_.Increment("async_requests");
  if (request.stream == 0) request.stream = async_stream_;
  data_path_->Submit(std::move(request));
}

void HybridStore::Execute(host::Command cmd) {
  if (host::IsBlockExpressible(cmd.kind)) {
    if (cmd.stream == 0) cmd.stream = async_stream_;
    SubmitAsync(host::LowerToIoRequest(std::move(cmd)));
    return;
  }
  // Hints and extended kinds are the data path's business.
  data_path_->Execute(std::move(cmd));
}

}  // namespace postblock::core
