#include "blocklayer/block_layer.h"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/inplace_callback.h"

namespace postblock::blocklayer {

BlockLayer::BlockLayer(sim::Simulator* sim, BlockDevice* lower,
                       const BlockLayerConfig& config)
    : sim_(sim),
      lower_(lower),
      config_(config),
      cpu_(sim, "host-cpu", static_cast<int>(config.cores)),
      tracer_(config.tracer) {
  IoSchedulerConfig sched;
  sched.kind = config_.scheduler;
  sched.merge_window = config_.merge_window;
  sched.cross_stream_merge = config_.cross_stream_merge;
  for (std::uint32_t q = 0; q < config_.nr_queues; ++q) {
    QueuePair pair;
    pair.scheduler = std::make_unique<IoScheduler>(sched);
    pair.lock = std::make_unique<sim::Resource>(
        sim, "blkq-lock-" + std::to_string(q));
    pair.tags = host::TagSet(config_.tags_per_queue);
    if (tracer_ != nullptr) {
      q_tracks_.push_back(tracer_->RegisterTrack(
          trace::kPidHost, "blkq-" + std::to_string(q)));
      pair.scheduler->set_tracer(tracer_, q_tracks_.back(), sim_);
    }
    queues_.push_back(std::move(pair));
  }
  if (config_.shared_depth > 0) {
    drr_credits_.resize(config_.nr_queues);
    for (std::uint32_t q = 0; q < config_.nr_queues; ++q) {
      drr_credits_[q] = WeightOf(q);
    }
  }
  metrics_ = config_.metrics;
  if (metrics_ != nullptr) {
    metrics::MetricRegistry* m = metrics_;
    m_submitted_ = m->AddCounter("blk.submitted");
    m_completed_ = m->AddCounter("blk.completed");
    m_lat_ = m->AddHistogram("blk.lat_ns");
    m->AddPolledCounter("blk.cpu_busy_ns",
                        [this] { return cpu_.busy_ns(); });
    m->AddPolledCounter("blk.back_merges", [this] {
      std::uint64_t total = 0;
      for (const auto& p : queues_) {
        total += p.scheduler->counters().Get("back_merges");
      }
      return total;
    });
    m->AddGauge("blk.queue_depth", [this] {
      std::size_t total = 0;
      for (const auto& p : queues_) total += p.scheduler->depth();
      return static_cast<double>(total);
    });
    m->AddGauge("blk.inflight", [this] {
      std::uint64_t total = 0;
      for (const auto& p : queues_) total += p.outstanding;
      return static_cast<double>(total);
    });
    if (config_.per_queue_metrics) {
      for (std::uint32_t q = 0; q < config_.nr_queues; ++q) {
        const std::string prefix = "blk.q" + std::to_string(q);
        m->AddGauge(prefix + ".depth", [this, q] {
          return static_cast<double>(queues_[q].scheduler->depth());
        });
        m->AddGauge(prefix + ".inflight", [this, q] {
          return static_cast<double>(queues_[q].outstanding);
        });
        m->AddPolledCounter(prefix + ".dispatched", [this, q] {
          return queues_[q].scheduler->counters().Get("dispatched");
        });
        m_q_lat_.push_back(m->AddHistogram(prefix + ".lat_ns"));
      }
    }
  }
}

BlockLayer::IoState* BlockLayer::AcquireIo(std::uint32_t q) {
  QueuePair& pair = queues_[q];
  const std::uint32_t tag = pair.tags.Acquire();
  if (tag == host::TagSet::kNoTag) return nullptr;
  while (pair.states.size() <= tag) pair.states.emplace_back();
  IoState* st = &pair.states[tag];
  st->q = q;
  st->tag = tag;
  return st;
}

void BlockLayer::ReleaseIo(IoState* st) {
  st->req = IoRequest{};
  st->user_cb = nullptr;
  st->result = IoResult{};
  QueuePair& pair = queues_[st->q];
  pair.tags.Release(st->tag);
  // A freed tag resumes one parked request through the full submit path
  // (it pays submission CPU now — the backpressure stall is visible in
  // its latency).
  if (!pair.waiters.empty()) {
    counters_.Increment("tag_resumes");
    IoRequest next = std::move(pair.waiters.front());
    pair.waiters.pop_front();
    StartIo(st->q, std::move(next));
  }
}

std::uint32_t BlockLayer::SelectQueue(const IoRequest& request) {
  if (config_.stream_queues && request.stream != 0) {
    counters_.Increment("stream_pins");
    return request.stream % static_cast<std::uint32_t>(queues_.size());
  }
  return static_cast<std::uint32_t>(rr_++ % queues_.size());
}

void BlockLayer::Submit(IoRequest request) {
  counters_.Increment("submitted");
  if (metrics_ != nullptr) metrics_->Increment(m_submitted_);
  const std::uint32_t q = SelectQueue(request);
  StartIo(q, std::move(request));
}

void BlockLayer::StartIo(std::uint32_t q, IoRequest request) {
  IoState* st = AcquireIo(q);
  if (st == nullptr) {
    // Fixed tag set exhausted: the host cannot post to a full SQ. Park
    // the request; ReleaseIo resumes it when a tag frees.
    counters_.Increment("tag_waits");
    queues_[q].waiters.push_back(std::move(request));
    return;
  }
  st->start = sim_->Now();
  st->epoch = epoch_;
  st->user_cb = std::move(request.on_complete);

  // Trace identity: mint the root span if nobody above us did. Copies
  // live in the IoState because `req` is moved into the scheduler.
  st->root = false;
  if (Traced() && request.span == 0) {
    request.span = tracer_->NewSpan();
    st->root = true;
  }
  st->span = request.span;
  st->origin = OriginOf(request.op);
  st->lba = request.lba;
  st->op = request.op;
  st->nblocks = request.nblocks;
  st->priority = request.priority;
  st->attempts = 1;

  // Wrap the completion: device completion -> completion CPU cost
  // (interrupt or poll) -> caller. Dropped if the host reset meanwhile.
  // The wrapper carries (queue_id, tag) so lower layers can attribute
  // the completion to its software queue without a lookup.
  request.on_complete = [this, st](const IoResult& result) {
    OnDeviceComplete(st, result);
  };
  request.on_complete.queue_id = static_cast<std::uint16_t>(st->q);
  request.on_complete.tag =
      st->tag < IoCallback::kNoTag ? static_cast<std::uint16_t>(st->tag)
                                   : IoCallback::kNoTag;
  st->req = std::move(request);

  // Submission path: per-core CPU work, then the (possibly contended)
  // queue lock for scheduler insertion — the single-queue bottleneck the
  // 2012 Linux block layer was being reworked to remove.
  auto submit_stage = [this, st] { SubmitToQueue(st); };
  static_assert(sim::InplaceCallback::fits<decltype(submit_stage)>());
  cpu_.UseFor(config_.cpu.submit_ns, submit_stage);
}

void BlockLayer::SubmitToQueue(IoState* st) {
  if (st->epoch != epoch_) {
    ReleaseIo(st);
    return;
  }
  auto enqueue_stage = [this, st] { EnqueueLocked(st); };
  static_assert(sim::InplaceCallback::fits<decltype(enqueue_stage)>());
  queues_[st->q].lock->UseFor(config_.cpu.schedule_ns, enqueue_stage);
}

void BlockLayer::EnqueueLocked(IoState* st) {
  if (st->epoch != epoch_) {
    ReleaseIo(st);
    return;
  }
  const std::uint32_t q = st->q;
  // Submission-side CPU + lock wait: everything since Submit().
  if (Traced() && st->span != 0) {
    tracer_->Record(trace::Stage::kSchedule, st->origin, st->span, 0,
                    q_tracks_[q], st->start, sim_->Now(), st->lba);
  }
  st->req.enqueued_at = sim_->Now();
  queues_[q].scheduler->Enqueue(std::move(st->req));
  DispatchEntry(q);
}

void BlockLayer::OnDeviceComplete(IoState* st, const IoResult& result) {
  if (st->epoch != epoch_) {
    ReleaseIo(st);
    return;
  }
  st->result = result;
  st->complete_t = sim_->Now();
  if (config_.coalesce_depth <= 1 && config_.coalesce_ns == 0) {
    // Uncoalesced: one completion-CPU charge per IO (old behaviour).
    const SimTime cost = config_.interrupt_completion
                             ? config_.cpu.interrupt_ns
                             : config_.cpu.polled_ns;
    auto finish_stage = [this, st] { FinishIo(st); };
    static_assert(sim::InplaceCallback::fits<decltype(finish_stage)>());
    cpu_.UseFor(cost, finish_stage);
    return;
  }
  // Coalesced: post to the per-queue completion ring; one CPU charge
  // will drain the whole ring (fewer interrupts per IO — the NVMe
  // coalescing knob).
  QueuePair& pair = queues_[st->q];
  pair.cq_ring.push_back(st);
  counters_.Increment("cq_posts");
  if (pair.cq_ring.size() >=
      static_cast<std::size_t>(config_.coalesce_depth)) {
    FlushCq(st->q);
    return;
  }
  if (!pair.cq_flush_armed) {
    pair.cq_flush_armed = true;
    const std::uint64_t gen = pair.cq_gen;
    const std::uint32_t q = st->q;
    auto timeout = [this, q, gen] {
      QueuePair& p = queues_[q];
      if (p.cq_gen == gen && !p.cq_ring.empty()) FlushCq(q);
    };
    static_assert(sim::InplaceCallback::fits<decltype(timeout)>());
    sim_->Schedule(config_.coalesce_ns, timeout);
  }
}

void BlockLayer::FlushCq(std::uint32_t q) {
  QueuePair& pair = queues_[q];
  ++pair.cq_gen;  // cancels any armed timeout
  pair.cq_flush_armed = false;
  if (pair.cq_ring.empty()) return;
  counters_.Increment("cq_flushes");
  std::vector<IoState*>* batch = cq_batches_.Acquire();
  batch->swap(pair.cq_ring);
  // One completion-CPU charge (the coalesced interrupt, or one poll
  // reap) covers the whole batch; each IO then finishes individually.
  const SimTime cost = config_.interrupt_completion
                           ? config_.cpu.interrupt_ns
                           : config_.cpu.polled_ns;
  auto drain = [this, q, batch] {
    for (IoState* st : *batch) FinishIo(st);
    batch->clear();
    cq_batches_.Recycle(batch);
    // The drained completions freed device slots (accounted at device
    // completion); now that the host has processed the ring, refill
    // them in one go — a deep refill is what fills a doorbell batch.
    DispatchEntry(q);
  };
  static_assert(sim::InplaceCallback::fits<decltype(drain)>());
  cpu_.UseFor(cost, drain);
}

void BlockLayer::FinishIo(IoState* st) {
  if (st->epoch != epoch_) {
    ReleaseIo(st);
    return;
  }
  // EIO retry: resubmit a failed read before it counts as completed.
  // Only uncorrectable media errors qualify — the device's own retry
  // ladder already ran, but a re-read can still succeed when the
  // failure was a transient (injected or queueing-sensitive) one.
  if (st->op == IoOp::kRead && st->result.status.IsDataLoss() &&
      st->attempts < config_.retry.max_attempts) {
    const SimTime backoff = config_.retry.backoff_ns
                            << (st->attempts - 1);
    ++st->attempts;
    counters_.Increment("eio_retries");
    auto resubmit = [this, st] { RetrySubmit(st); };
    static_assert(sim::InplaceCallback::fits<decltype(resubmit)>());
    sim_->Schedule(backoff, resubmit);
    return;
  }
  if (!st->result.status.ok()) counters_.Increment("io_errors");
  const SimTime latency = sim_->Now() - st->start;
  latency_.Record(latency);
  counters_.Increment("completed");
  if (metrics_ != nullptr) {
    metrics_->Increment(m_completed_);
    metrics_->Record(m_lat_, latency);
    if (!m_q_lat_.empty()) metrics_->Record(m_q_lat_[st->q], latency);
  }
  if (Traced() && st->span != 0) {
    const std::uint32_t track = q_tracks_[st->q];
    // Completion-side CPU (interrupt or poll) since device completion.
    if (sim_->Now() > st->complete_t) {
      tracer_->Record(trace::Stage::kSchedule, st->origin, st->span, 0,
                      track, st->complete_t, sim_->Now(), st->lba);
    }
    if (st->root) {
      tracer_->Record(trace::Stage::kIo, st->origin, st->span, 0, track,
                      st->start, sim_->Now(), st->lba);
    }
  }
  IoCallback cb = std::move(st->user_cb);
  IoResult result = std::move(st->result);
  ReleaseIo(st);
  if (cb) cb(result);
}

void BlockLayer::RetrySubmit(IoState* st) {
  if (st->epoch != epoch_) {  // host reset during the backoff
    ReleaseIo(st);
    return;
  }
  IoRequest r;
  r.op = st->op;
  r.lba = st->lba;
  r.nblocks = st->nblocks;
  r.priority = st->priority;
  r.span = st->span;
  r.on_complete = [this, st](const IoResult& result) {
    OnDeviceComplete(st, result);
  };
  r.on_complete.queue_id = static_cast<std::uint16_t>(st->q);
  r.on_complete.tag =
      st->tag < IoCallback::kNoTag ? static_cast<std::uint16_t>(st->tag)
                                   : IoCallback::kNoTag;
  st->result = IoResult{};
  st->req = std::move(r);
  // Re-enter at the queue stage: the retry pays lock + scheduling again
  // (it is a fresh request to the device) but not the submit-side CPU,
  // and keeps its original start time so latency shows the whole tax.
  SubmitToQueue(st);
}

void BlockLayer::PowerCycle() {
  ++epoch_;
  for (auto& pair : queues_) {
    // Tag waiters first: they were never tagged; dropping them must not
    // be resurrected by the ReleaseIo calls below.
    pair.waiters.clear();
    // Ring-resident completions: their device completion already ran;
    // reclaim the tagged state directly.
    ++pair.cq_gen;
    pair.cq_flush_armed = false;
    for (IoState* st : pair.cq_ring) ReleaseIo(st);
    pair.cq_ring.clear();
    while (!pair.scheduler->empty()) {
      // Each queued request's on_complete is the OnDeviceComplete
      // wrapper holding a tagged IoState. Run it under the already
      // bumped epoch: the stale-epoch check returns the IoState to the
      // pool without touching `outstanding` or the caller's callback,
      // so dropped requests don't orphan their tagged state.
      IoRequest r = pair.scheduler->Dequeue();
      if (r.on_complete) {
        IoResult dropped;
        dropped.status = Status::Unavailable("dropped by power cycle");
        r.on_complete(dropped);
      }
    }
    pair.outstanding = 0;
  }
  shared_outstanding_ = 0;
  for (std::uint32_t q = 0; q < drr_credits_.size(); ++q) {
    drr_credits_[q] = WeightOf(q);
  }
}

IoRequest BlockLayer::WrapDispatchAccounting(std::uint32_t q,
                                             IoRequest r) {
  // Depth accounting must track *device* IOs, not submitter callbacks:
  // a k-way merged request is one dispatch whose completion fans out to
  // k per-state wrappers, so decrementing in the per-state wrapper
  // would underflow `outstanding` by k-1. The slot is released here,
  // exactly once per dequeued request, before the fan-out runs.
  const std::uint64_t epoch = epoch_;
  IoCallback done = std::move(r.on_complete);
  const std::uint16_t qid = done.queue_id;
  const std::uint16_t tag = done.tag;
  r.on_complete = [this, q, epoch,
                   done = std::move(done)](const IoResult& result) {
    if (epoch == epoch_) {
      --queues_[q].outstanding;
      if (config_.shared_depth > 0) --shared_outstanding_;
      // Uncoalesced: the host notices the freed slot immediately (one
      // interrupt per IO) and refills it. Coalesced: the slot is free
      // at the device but the host only sees it when the completion
      // ring is drained — FlushCq re-enters dispatch for the whole
      // batch, which is what lets doorbell batching amortize.
      if (config_.coalesce_depth <= 1 && config_.coalesce_ns == 0) {
        DispatchEntry(q);
      }
    }
    done(result);
  };
  r.on_complete.queue_id = qid;
  r.on_complete.tag = tag;
  return r;
}

void BlockLayer::DispatchEntry(std::uint32_t q) {
  if (config_.shared_depth > 0) {
    DispatchShared();
  } else {
    Dispatch(q);
  }
}

void BlockLayer::Dispatch(std::uint32_t q) {
  QueuePair& pair = queues_[q];
  if (config_.doorbell_batch <= 1) {
    while (pair.outstanding < config_.queue_depth &&
           !pair.scheduler->empty()) {
      IoRequest r = pair.scheduler->Dequeue();
      if (Traced() && r.span != 0 && sim_->Now() > r.enqueued_at) {
        tracer_->Record(trace::Stage::kQueueWait, OriginOf(r.op), r.span,
                        0, q_tracks_[q], r.enqueued_at, sim_->Now(),
                        r.lba);
      }
      ++pair.outstanding;
      lower_->Submit(WrapDispatchAccounting(q, std::move(r)));
    }
    return;
  }
  // Batched doorbell: collect up to doorbell_batch dispatchable
  // requests, pay one doorbell CPU charge, hand the batch to the device
  // in one ring. `outstanding` is claimed up front so a completion
  // arriving during the doorbell CPU time cannot over-dispatch.
  while (pair.outstanding < config_.queue_depth &&
         !pair.scheduler->empty()) {
    std::vector<IoRequest> batch;
    batch.reserve(std::min<std::size_t>(
        config_.doorbell_batch, config_.queue_depth - pair.outstanding));
    while (pair.outstanding < config_.queue_depth &&
           !pair.scheduler->empty() &&
           batch.size() < config_.doorbell_batch) {
      IoRequest r = pair.scheduler->Dequeue();
      if (Traced() && r.span != 0 && sim_->Now() > r.enqueued_at) {
        tracer_->Record(trace::Stage::kQueueWait, OriginOf(r.op), r.span,
                        0, q_tracks_[q], r.enqueued_at, sim_->Now(),
                        r.lba);
      }
      ++pair.outstanding;
      batch.push_back(WrapDispatchAccounting(q, std::move(r)));
    }
    counters_.Increment("doorbells");
    counters_.Add("doorbell_cmds", batch.size());
    if (config_.doorbell_ns > 0) {
      cpu_.UseFor(config_.doorbell_ns,
                  [this, batch = std::move(batch)]() mutable {
                    lower_->SubmitBatch(std::move(batch));
                  });
    } else {
      lower_->SubmitBatch(std::move(batch));
    }
  }
}

std::uint32_t BlockLayer::WeightOf(std::uint32_t q) const {
  if (config_.qos_weights.empty()) return 1;
  const std::uint32_t w =
      config_.qos_weights[q % config_.qos_weights.size()];
  return w == 0 ? 1 : w;  // >=1: every queue drains — starvation-free
}

void BlockLayer::DispatchShared() {
  // Deficit round-robin over the shared device-slot budget: a queue
  // spends one credit per dispatch; when every backlogged queue is out
  // of credit, all credits replenish to their weights. A weight-w queue
  // gets w slots per round, and every queue gets at least one — no
  // starvation regardless of the weight ratio.
  const std::uint32_t n = static_cast<std::uint32_t>(queues_.size());
  while (shared_outstanding_ < config_.shared_depth) {
    bool any_work = false;
    bool dispatched = false;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t q = (drr_pos_ + i) % n;
      QueuePair& pair = queues_[q];
      if (pair.scheduler->empty()) continue;
      any_work = true;
      if (drr_credits_[q] == 0) continue;
      --drr_credits_[q];
      IoRequest r = pair.scheduler->Dequeue();
      if (Traced() && r.span != 0 && sim_->Now() > r.enqueued_at) {
        tracer_->Record(trace::Stage::kQueueWait, OriginOf(r.op), r.span,
                        0, q_tracks_[q], r.enqueued_at, sim_->Now(),
                        r.lba);
      }
      ++pair.outstanding;
      ++shared_outstanding_;
      drr_pos_ = q;  // keep draining this queue while it has credit
      lower_->Submit(WrapDispatchAccounting(q, std::move(r)));
      dispatched = true;
      break;
    }
    if (!any_work) return;
    if (!dispatched) {
      // Backlogged queues exist but none has credit: new DRR round.
      counters_.Increment("drr_rounds");
      for (std::uint32_t q = 0; q < n; ++q) drr_credits_[q] = WeightOf(q);
      drr_pos_ = (drr_pos_ + 1) % n;
    }
  }
}

void BlockLayer::Execute(host::Command cmd) {
  if (host::IsBlockExpressible(cmd.kind)) {
    Submit(host::LowerToIoRequest(std::move(cmd)));
    return;
  }
  if (cmd.kind == host::CommandKind::kHint) {
    counters_.Increment("hints");
    if (cmd.on_complete) cmd.on_complete(IoResult{Status::Ok(), {}});
    return;
  }
  // Extended kinds bypass the queues: the block vocabulary cannot name
  // them, so the layer cannot schedule or merge them — passthrough when
  // the device below speaks them, Unimplemented otherwise.
  if (lower_->Supports(cmd.kind)) {
    counters_.Increment("passthrough_cmds");
    lower_->Execute(std::move(cmd));
    return;
  }
  if (cmd.on_complete) {
    cmd.on_complete(IoResult{
        Status::Unimplemented("command not supported below block layer"),
        {}});
  }
}

bool BlockLayer::Supports(host::CommandKind kind) const {
  if (host::IsBlockExpressible(kind) || kind == host::CommandKind::kHint) {
    return true;
  }
  return lower_->Supports(kind);
}

std::size_t BlockLayer::io_states_allocated() const {
  std::size_t total = 0;
  for (const auto& pair : queues_) total += pair.states.size();
  return total;
}

std::size_t BlockLayer::io_states_free() const {
  std::size_t total = 0;
  for (const auto& pair : queues_) {
    total += pair.states.size() - pair.tags.in_use();
  }
  return total;
}

}  // namespace postblock::blocklayer
