#include "vbd/backend.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>
#include <vector>

namespace postblock::vbd {

using blocklayer::IoCallback;
using blocklayer::IoOp;
using blocklayer::IoRequest;
using blocklayer::IoResult;

Backend::Backend(sim::Simulator* sim, blocklayer::BlockDevice* lower,
                 BackendConfig config)
    : sim_(sim), lower_(lower), config_(config) {
  assert(lower_ != nullptr);
  free_extents_.push_back({0, lower_->num_blocks()});
  if (config_.metrics != nullptr && !config_.metrics->Has("vbd.submitted")) {
    m_submitted_ = config_.metrics->AddCounter("vbd.submitted");
    m_completed_ = config_.metrics->AddCounter("vbd.completed");
    m_rejected_ = config_.metrics->AddCounter("vbd.rejected");
  }
}

Backend::~Backend() = default;

// --- Tenant lifecycle ------------------------------------------------

StatusOr<Frontend*> Backend::CreateTenant(TenantConfig config) {
  if (config.capacity_blocks == 0) {
    return Status::InvalidArgument("capacity_blocks must be > 0");
  }
  if (config.capacity_blocks > 0xffffffffull) {
    return Status::InvalidArgument(
        "capacity_blocks must fit 32 bits (trim granularity)");
  }
  const std::uint64_t quota =
      config.quota_blocks == 0 ? config.capacity_blocks : config.quota_blocks;
  if (quota > config.capacity_blocks) {
    return Status::InvalidArgument("quota_blocks exceeds capacity_blocks");
  }
  StatusOr<std::uint64_t> base = AllocateExtent(config.capacity_blocks);
  if (!base.ok()) return base.status();

  TenantId id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = static_cast<TenantId>(tenants_.size());
    tenants_.emplace_back();
    drr_credits_.push_back(0);
  }
  Tenant& t = tenants_[id];
  t.config = std::move(config);
  if (t.config.name.empty()) {
    // Built piecewise: `"t" + std::to_string(id)` trips a false
    // -Wrestrict in GCC 12's inlined string copy at -O3.
    std::string name(1, 't');
    name += std::to_string(id);
    t.config.name = std::move(name);
  }
  t.state = TenantState::kConnected;
  t.destroying = false;
  t.ever_written = false;
  t.epoch = ++epoch_counter_;
  t.base = base.value();
  t.quota = quota;
  t.used = 0;
  t.written.assign((t.config.capacity_blocks + 63) / 64, 0);
  t.inflight = 0;
  t.pending.clear();
  t.on_drained = nullptr;
  drr_credits_[id] = WeightOf(t);
  t.track = 0;
  if (config_.tracer != nullptr) {
    t.track = config_.tracer->RegisterTrack(trace::kPidTenantBase + id,
                                            t.config.name);
  }
  t.m_read_lat = metrics::kInvalidId;
  t.m_write_lat = metrics::kInvalidId;
  if (t.config.register_metrics && config_.metrics != nullptr) {
    // Skip names already taken (a recreated tenant reusing a name): the
    // registry requires unique registration, and the Sampler's column
    // layout is frozen at Start() anyway.
    const std::string prefix = "vbd." + t.config.name;
    if (!config_.metrics->Has(prefix + ".read_lat_ns")) {
      t.m_read_lat = config_.metrics->AddHistogram(prefix + ".read_lat_ns");
    }
    if (!config_.metrics->Has(prefix + ".write_lat_ns")) {
      t.m_write_lat = config_.metrics->AddHistogram(prefix + ".write_lat_ns");
    }
  }
  frontends_.push_back(std::unique_ptr<Frontend>(
      new Frontend(this, id, t.epoch, t.config.name, t.config.capacity_blocks,
                   quota, lower_->block_bytes())));
  t.fe = frontends_.back().get();
  counters_.Increment("tenants_created");
  return t.fe;
}

Status Backend::DestroyTenant(TenantId id, IoCallback on_destroyed) {
  if (id >= tenants_.size() ||
      tenants_[id].state == TenantState::kDestroyed) {
    return Status::NotFound("no such tenant");
  }
  Tenant& t = tenants_[id];
  if (t.state == TenantState::kDraining) {
    return Status::FailedPrecondition("tenant already draining");
  }
  t.destroying = true;
  t.on_drained = std::move(on_destroyed);
  t.state = TenantState::kDraining;
  CancelPending(t);
  if (t.inflight == 0) FinishDrain(id);
  return Status::Ok();
}

Status Backend::Disconnect(TenantId id, IoCallback on_drained) {
  if (id >= tenants_.size() ||
      tenants_[id].state == TenantState::kDestroyed) {
    return Status::NotFound("no such tenant");
  }
  Tenant& t = tenants_[id];
  if (t.state != TenantState::kConnected) {
    return Status::FailedPrecondition("tenant not connected");
  }
  t.destroying = false;
  t.on_drained = std::move(on_drained);
  t.state = TenantState::kDraining;
  CancelPending(t);
  if (t.inflight == 0) FinishDrain(id);
  return Status::Ok();
}

Status Backend::Connect(TenantId id) {
  if (id >= tenants_.size() ||
      tenants_[id].state == TenantState::kDestroyed) {
    return Status::NotFound("no such tenant");
  }
  Tenant& t = tenants_[id];
  if (t.state != TenantState::kDisconnected) {
    return Status::FailedPrecondition("tenant not disconnected");
  }
  t.state = TenantState::kConnected;
  counters_.Increment("tenants_reconnected");
  return Status::Ok();
}

void Backend::CancelPending(Tenant& tenant) {
  std::deque<VbdIo*> pending;
  pending.swap(tenant.pending);
  for (VbdIo* io : pending) {
    Frontend* fe = io->fe;
    ++fe->stats_.cancelled;
    counters_.Increment("cancelled");
    IoCallback cb = std::move(io->user_cb);
    ReleaseIo(io);
    if (cb) {
      cb(IoResult{
          Status::Unavailable("tenant draining: queued IO cancelled"), {}});
    }
  }
}

void Backend::FinishDrain(TenantId id) {
  Tenant& t = tenants_[id];
  assert(t.inflight == 0 && t.pending.empty());
  if (!t.destroying) {
    t.state = TenantState::kDisconnected;
    counters_.Increment("tenants_disconnected");
    IoCallback cb = std::move(t.on_drained);
    t.on_drained = nullptr;
    if (cb) cb(IoResult{Status::Ok(), {}});
    return;
  }
  if (config_.trim_on_destroy && t.ever_written) {
    // Unmap the whole extent before the namespace returns to the free
    // list: the FTL reclaims the dead data, and a later tenant of the
    // same extent starts from unmapped media.
    IoRequest trim;
    trim.op = IoOp::kTrim;
    trim.lba = t.base;
    trim.nblocks = static_cast<std::uint32_t>(t.config.capacity_blocks);
    trim.on_complete =
        IoCallback([this, id](const IoResult&) { FinishDestroy(id); });
    counters_.Increment("destroy_trims");
    lower_->Submit(std::move(trim));
    return;
  }
  FinishDestroy(id);
}

void Backend::FinishDestroy(TenantId id) {
  Tenant& t = tenants_[id];
  ReleaseExtent(t.base, t.config.capacity_blocks);
  t.state = TenantState::kDestroyed;
  t.written.clear();
  t.written.shrink_to_fit();
  t.used = 0;
  free_slots_.push_back(id);
  counters_.Increment("tenants_destroyed");
  IoCallback cb = std::move(t.on_drained);
  t.on_drained = nullptr;
  if (cb) cb(IoResult{Status::Ok(), {}});
}

// --- Submission path -------------------------------------------------

void Backend::Submit(Frontend* fe, IoRequest request) {
  ++fe->stats_.submitted;
  fe->counters_.Increment("submitted");
  counters_.Increment("submitted");
  if (m_submitted_ != metrics::kInvalidId) {
    config_.metrics->Increment(m_submitted_);
  }

  Tenant* t = fe->id_ < tenants_.size() ? &tenants_[fe->id_] : nullptr;
  if (t == nullptr || t->epoch != fe->epoch_ ||
      t->state != TenantState::kConnected) {
    ++fe->stats_.rejected_state;
    Reject(std::move(request.on_complete),
           Status::Unavailable("tenant not connected"));
    return;
  }

  const IoOp op = request.op;
  if (op != IoOp::kFlush) {
    if (request.nblocks == 0 || request.lba >= fe->capacity_ ||
        request.nblocks > fe->capacity_ - request.lba) {
      ++fe->stats_.rejected_bounds;
      Reject(std::move(request.on_complete),
             Status::OutOfRange("IO outside tenant namespace"));
      return;
    }
  }

  std::uint64_t zero_mask = 0;
  if (op == IoOp::kWrite) {
    const std::uint64_t fresh =
        CountUnwritten(*t, request.lba, request.nblocks);
    if (fresh > t->quota - t->used) {
      ++fe->stats_.rejected_quota;
      Reject(std::move(request.on_complete),
             Status::ResourceExhausted("tenant quota exhausted"));
      return;
    }
    MarkWritten(*t, request.lba, request.nblocks);
    t->used += fresh;
    t->ever_written = true;
  } else if (op == IoOp::kTrim) {
    t->used -= ClearWritten(*t, request.lba, request.nblocks);
  } else if (op == IoOp::kRead) {
    if (request.nblocks <= 64) {
      for (std::uint32_t b = 0; b < request.nblocks; ++b) {
        const Lba a = request.lba + b;
        if ((t->written[a >> 6] >> (a & 63) & 1) == 0) {
          zero_mask |= 1ull << b;
        }
      }
      const std::uint64_t full = request.nblocks == 64
                                     ? ~0ull
                                     : (1ull << request.nblocks) - 1;
      if (zero_mask == full) {
        ServeThinRead(fe, *t, std::move(request));
        return;
      }
    } else if (CountUnwritten(*t, request.lba, request.nblocks) != 0) {
      // The zero-fill mask covers 64 blocks; longer reads are only
      // forwarded when fully written (anything else would risk leaking
      // a predecessor's media contents).
      ++fe->stats_.rejected_bounds;
      Reject(std::move(request.on_complete),
             Status::InvalidArgument(
                 "read of partially-written span longer than 64 blocks"));
      return;
    }
  }

  VbdIo* io = AcquireIo();
  io->tenant = fe->id_;
  io->epoch = fe->epoch_;
  io->fe = fe;
  io->op = op;
  io->nblocks = request.nblocks;
  io->zero_mask = zero_mask;
  io->start = sim_->Now();
  io->enqueued = 0;
  io->dispatched = 0;
  io->shared_slot = false;
  io->track = t->track;
  io->user_cb = std::move(request.on_complete);

  if (op != IoOp::kFlush) request.lba += t->base;
  if (request.stream == 0) request.stream = t->config.stream;
  if (request.priority == 0) request.priority = t->config.priority;
  io->root = false;
  if (Traced() && request.span == 0) {
    request.span = config_.tracer->NewSpan();
    io->root = true;
  }
  io->span = request.span;
  request.on_complete =
      IoCallback([this, io](const IoResult& r) { OnLowerComplete(io, r); });
  io->req = std::move(request);

  if (config_.shared_depth == 0) {
    DispatchIo(io);
    return;
  }
  io->enqueued = sim_->Now();
  io->req.enqueued_at = io->enqueued;
  t->pending.push_back(io);
  DispatchShared();
}

void Backend::ServeThinRead(Frontend* fe, Tenant& t, IoRequest request) {
  const std::uint32_t nblocks = request.nblocks;
  const SimTime start = sim_->Now();
  trace::SpanId span = request.span;
  if (Traced() && span == 0) span = config_.tracer->NewSpan();
  sim_->Schedule(
      config_.thin_read_latency_ns,
      [this, fe, nblocks, start, span, track = t.track,
       mrl = t.m_read_lat, lba = request.lba,
       cb = std::move(request.on_complete)]() {
        const SimTime now = sim_->Now();
        ++fe->stats_.completed;
        ++fe->stats_.thin_reads;
        fe->stats_.blocks_read += nblocks;
        fe->stats_.zero_filled_blocks += nblocks;
        fe->stats_.read_latency.Record(now - start);
        fe->counters_.Increment("completed");
        counters_.Increment("completed");
        counters_.Increment("thin_reads");
        if (m_completed_ != metrics::kInvalidId) {
          config_.metrics->Increment(m_completed_);
        }
        if (mrl != metrics::kInvalidId) {
          config_.metrics->Record(mrl, now - start);
        }
        if (Traced() && span != 0) {
          config_.tracer->Record(trace::Stage::kIo, trace::Origin::kHostRead,
                                 span, 0, track, start, now, lba);
        }
        if (cb) {
          cb(IoResult{Status::Ok(),
                      std::vector<std::uint64_t>(nblocks, 0)});
        }
      });
}

void Backend::Reject(IoCallback cb, Status status) {
  counters_.Increment("rejected");
  if (m_rejected_ != metrics::kInvalidId) {
    config_.metrics->Increment(m_rejected_);
  }
  if (!cb) return;
  sim_->Schedule(config_.reject_latency_ns,
                 [cb = std::move(cb), status = std::move(status)]() {
                   cb(IoResult{status, {}});
                 });
}

void Backend::DispatchIo(VbdIo* io) {
  Tenant& t = tenants_[io->tenant];
  ++t.inflight;
  io->dispatched = sim_->Now();
  lower_->Submit(std::move(io->req));
}

void Backend::DispatchShared() {
  // Same deficit-round-robin semantics as the mq block layer's
  // shared-depth gate (BlockLayer::DispatchShared), one level up:
  // tenants spend one credit per dispatched IO; when every backlogged
  // tenant is out of credit, all credits replenish to the weights.
  while (shared_outstanding_ < config_.shared_depth) {
    const std::uint32_t n = static_cast<std::uint32_t>(tenants_.size());
    if (n == 0) return;
    bool dispatched = false;
    bool any_work = false;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t q = (drr_pos_ + i) % n;
      Tenant& t = tenants_[q];
      if (t.pending.empty()) continue;
      any_work = true;
      if (drr_credits_[q] == 0) continue;
      --drr_credits_[q];
      VbdIo* io = t.pending.front();
      t.pending.pop_front();
      io->shared_slot = true;
      ++shared_outstanding_;
      drr_pos_ = q;
      DispatchIo(io);
      dispatched = true;
      break;
    }
    if (!any_work) return;
    if (!dispatched) {
      for (std::uint32_t q = 0; q < n; ++q) {
        drr_credits_[q] = WeightOf(tenants_[q]);
      }
      drr_pos_ = (drr_pos_ + 1) % n;
    }
  }
}

void Backend::OnLowerComplete(VbdIo* io, const IoResult& result) {
  const SimTime now = sim_->Now();
  Frontend* fe = io->fe;
  const TenantId tid = io->tenant;
  const std::uint64_t epoch = io->epoch;
  Tenant* t = &tenants_[tid];
  const bool live = t->epoch == epoch;
  if (!live) {
    ++stale_completions_;
    t = nullptr;
  }

  ++fe->stats_.completed;
  fe->counters_.Increment("completed");
  counters_.Increment("completed");
  if (m_completed_ != metrics::kInvalidId) {
    config_.metrics->Increment(m_completed_);
  }
  if (!result.status.ok()) {
    ++fe->stats_.errors;
    counters_.Increment("errors");
  }

  const SimTime lat = now - io->start;
  if (io->op == IoOp::kRead) {
    fe->stats_.blocks_read += io->nblocks;
    fe->stats_.read_latency.Record(lat);
    if (live && t->m_read_lat != metrics::kInvalidId) {
      config_.metrics->Record(t->m_read_lat, lat);
    }
  } else {
    if (io->op == IoOp::kWrite) fe->stats_.blocks_written += io->nblocks;
    fe->stats_.write_latency.Record(lat);
    if (live && t->m_write_lat != metrics::kInvalidId) {
      config_.metrics->Record(t->m_write_lat, lat);
    }
  }

  // Zero-fill never-written blocks of a partially-written read: the
  // device's media contents for those LBAs belong to no one (or to a
  // destroyed predecessor) and must not surface.
  const IoResult* out = &result;
  IoResult masked;
  if (io->op == IoOp::kRead && io->zero_mask != 0 && result.status.ok()) {
    masked.status = result.status;
    masked.tokens = result.tokens;
    if (masked.tokens.size() < io->nblocks) {
      masked.tokens.resize(io->nblocks, 0);
    }
    std::uint64_t filled = 0;
    for (std::uint32_t b = 0; b < io->nblocks && b < 64; ++b) {
      if (io->zero_mask >> b & 1) {
        masked.tokens[b] = 0;
        ++filled;
      }
    }
    fe->stats_.zero_filled_blocks += filled;
    out = &masked;
  }

  if (Traced() && io->span != 0) {
    const trace::Origin origin = blocklayer::OriginOf(io->op);
    if (io->enqueued != 0 && io->dispatched > io->enqueued) {
      config_.tracer->Record(trace::Stage::kQueueWait, origin, io->span, 0,
                             io->track, io->enqueued, io->dispatched,
                             io->nblocks);
    }
    if (io->root) {
      config_.tracer->Record(trace::Stage::kIo, origin, io->span, 0,
                             io->track, io->start, now, io->nblocks);
    }
  }

  if (io->shared_slot) --shared_outstanding_;
  if (live) --t->inflight;
  IoCallback cb = std::move(io->user_cb);
  ReleaseIo(io);
  if (cb) cb(*out);

  // The user callback may have created/destroyed tenants (reallocating
  // tenants_) — re-derive the slot before the drain check.
  if (tid < tenants_.size()) {
    Tenant& t2 = tenants_[tid];
    if (t2.epoch == epoch && t2.state == TenantState::kDraining &&
        t2.inflight == 0 && t2.pending.empty()) {
      FinishDrain(tid);
    }
  }
  if (config_.shared_depth != 0) DispatchShared();
}

// --- Pooled IO state -------------------------------------------------

Backend::VbdIo* Backend::AcquireIo() {
  if (io_free_.empty()) {
    io_pool_.emplace_back();
    io_free_.push_back(&io_pool_.back());
  }
  VbdIo* io = io_free_.back();
  io_free_.pop_back();
  return io;
}

void Backend::ReleaseIo(VbdIo* io) {
  io->user_cb = nullptr;
  io->req = IoRequest{};
  io->zero_mask = 0;
  io_free_.push_back(io);
}

// --- Extent allocator ------------------------------------------------

StatusOr<std::uint64_t> Backend::AllocateExtent(std::uint64_t blocks) {
  for (auto it = free_extents_.begin(); it != free_extents_.end(); ++it) {
    if (it->second >= blocks) {
      const std::uint64_t base = it->first;
      it->first += blocks;
      it->second -= blocks;
      if (it->second == 0) free_extents_.erase(it);
      return base;
    }
  }
  return Status::ResourceExhausted(
      "no contiguous extent of " + std::to_string(blocks) + " blocks free");
}

void Backend::ReleaseExtent(std::uint64_t base, std::uint64_t blocks) {
  auto it = std::lower_bound(
      free_extents_.begin(), free_extents_.end(), base,
      [](const std::pair<std::uint64_t, std::uint64_t>& e, std::uint64_t b) {
        return e.first < b;
      });
  it = free_extents_.insert(it, {base, blocks});
  const auto next = it + 1;
  if (next != free_extents_.end() && it->first + it->second == next->first) {
    it->second += next->second;
    free_extents_.erase(next);
  }
  if (it != free_extents_.begin()) {
    const auto prev = it - 1;
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      free_extents_.erase(it);
    }
  }
}

// --- Allocation bitmap -----------------------------------------------

std::uint64_t Backend::CountUnwritten(const Tenant& t, Lba lba,
                                      std::uint32_t n) {
  std::uint64_t fresh = 0;
  for (std::uint32_t b = 0; b < n; ++b) {
    const Lba a = lba + b;
    fresh += (t.written[a >> 6] >> (a & 63) & 1) == 0 ? 1 : 0;
  }
  return fresh;
}

void Backend::MarkWritten(Tenant& t, Lba lba, std::uint32_t n) {
  for (std::uint32_t b = 0; b < n; ++b) {
    const Lba a = lba + b;
    t.written[a >> 6] |= 1ull << (a & 63);
  }
}

std::uint64_t Backend::ClearWritten(Tenant& t, Lba lba, std::uint32_t n) {
  std::uint64_t freed = 0;
  for (std::uint32_t b = 0; b < n; ++b) {
    const Lba a = lba + b;
    const std::uint64_t bit = 1ull << (a & 63);
    freed += (t.written[a >> 6] & bit) != 0 ? 1 : 0;
    t.written[a >> 6] &= ~bit;
  }
  return freed;
}

// --- Introspection ---------------------------------------------------

std::size_t Backend::num_tenants() const {
  std::size_t n = 0;
  for (const Tenant& t : tenants_) {
    if (t.state != TenantState::kDestroyed) ++n;
  }
  return n;
}

TenantState Backend::state(TenantId id) const {
  return id < tenants_.size() ? tenants_[id].state : TenantState::kDestroyed;
}

std::uint64_t Backend::extent_base(TenantId id) const {
  return id < tenants_.size() ? tenants_[id].base : 0;
}

std::uint32_t Backend::tenant_inflight(TenantId id) const {
  return id < tenants_.size() ? tenants_[id].inflight : 0;
}

std::size_t Backend::tenant_pending(TenantId id) const {
  return id < tenants_.size() ? tenants_[id].pending.size() : 0;
}

std::uint64_t Backend::quota_used(TenantId id) const {
  return id < tenants_.size() ? tenants_[id].used : 0;
}

TenantState Backend::StateFor(const Frontend& fe) const {
  if (fe.id_ >= tenants_.size() || tenants_[fe.id_].epoch != fe.epoch_) {
    return TenantState::kDestroyed;
  }
  return tenants_[fe.id_].state;
}

std::uint64_t Backend::QuotaUsedFor(const Frontend& fe) const {
  if (fe.id_ >= tenants_.size() || tenants_[fe.id_].epoch != fe.epoch_) {
    return 0;
  }
  return tenants_[fe.id_].used;
}

}  // namespace postblock::vbd
