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

void HybridStore::SyncPersist(std::vector<std::uint8_t> record,
                              std::function<void(Status)> cb,
                              trace::Ctx ctx) {
  const SimTime start = sim_->Now();
  counters_.Increment("sync_persists");
  counters_.Add("sync_bytes", record.size());
  // Trace identity of this persist: inherit the caller's span or mint
  // one, and record the whole commit-critical path as a kApp span when
  // it completes. Classic mode threads the span through the write+flush
  // below, so the trace shows what the block stack cost the commit.
  trace::SpanId span = ctx.span;
  if (tracer_ != nullptr && tracer_->enabled() && span == 0) {
    span = tracer_->NewSpan();
  }
  if (pcm_log_ != nullptr) {
    pcm_log_->Append(
        std::move(record),
        [this, start, span, cb = std::move(cb)](StatusOr<Lsn> r) {
          sync_latency_.Record(sim_->Now() - start);
          if (tracer_ != nullptr && span != 0) {
            tracer_->Record(trace::Stage::kApp, trace::Origin::kHostWrite,
                            span, 0, track_, start, sim_->Now());
          }
          cb(r.ok() ? Status::Ok() : r.status());
        });
    return;
  }
  // Classic: one whole log block per record (the interface has no
  // smaller write unit), then a flush barrier to defeat the volatile
  // cache — this is what WAL-on-SSD actually costs.
  counters_.Add("sync_padded_bytes",
                data_path_->block_bytes() > record.size()
                    ? data_path_->block_bytes() - record.size()
                    : 0);
  const Lba lba =
      log_region_start_ + (log_head_block_++ % log_region_blocks_);
  const std::uint64_t token = next_log_token_++;
  blocklayer::IoRequest write;
  write.op = blocklayer::IoOp::kWrite;
  write.lba = lba;
  write.nblocks = 1;
  write.tokens = {token};
  // Commit-critical: jumps lazy page flushes under a priority scheduler
  // (ref [13]).
  write.priority = 1;
  write.stream = wal_stream_;
  write.span = span;
  auto record_ptr =
      std::make_shared<std::vector<std::uint8_t>>(std::move(record));
  write.on_complete = [this, start, span, lba, token, record_ptr,
                       cb = std::move(cb)](
                          const blocklayer::IoResult& wr) mutable {
    if (!wr.status.ok()) {
      sync_latency_.Record(sim_->Now() - start);
      cb(wr.status);
      return;
    }
    blocklayer::IoRequest flush;
    flush.op = blocklayer::IoOp::kFlush;
    flush.nblocks = 1;
    flush.stream = wal_stream_;
    flush.span = span;
    flush.on_complete = [this, start, span, lba, token, record_ptr,
                         cb = std::move(cb)](
                            const blocklayer::IoResult& fr) {
      sync_latency_.Record(sim_->Now() - start);
      if (tracer_ != nullptr && span != 0) {
        tracer_->Record(trace::Stage::kApp, trace::Origin::kHostWrite,
                        span, 0, track_, start, sim_->Now());
      }
      if (fr.status.ok()) {
        // The record is now beyond the volatile cache: durable.
        classic_durable_.push_back(std::move(*record_ptr));
        classic_slots_.push_back(ClassicLogSlot{lba, token});
      }
      cb(fr.status);
    };
    data_path_->Submit(std::move(flush));
  };
  data_path_->Submit(std::move(write));
}

std::vector<std::vector<std::uint8_t>> HybridStore::DurableRecords() const {
  if (pcm_log_ != nullptr) return pcm_log_->RecoverAll();
  return classic_durable_;
}

void HybridStore::RecoverRecords(
    std::function<void(std::vector<std::vector<std::uint8_t>>)> cb) {
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

void HybridStore::TruncateLog(std::function<void(Status)> cb) {
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
