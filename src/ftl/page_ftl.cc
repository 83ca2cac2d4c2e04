#include "ftl/page_ftl.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace postblock::ftl {

namespace {
// Bound on mapping-consistency read retries; exceeded only by a bug.
constexpr int kMaxReadRetries = 4;
}  // namespace

PageFtl::PageFtl(ssd::Controller* controller, std::uint64_t logical_pages)
    : controller_(controller),
      logical_pages_(logical_pages != 0 ? logical_pages
                                        : controller->config().UserPages()),
      map_(logical_pages_),
      luns_(controller->config().geometry.luns()),
      in_flight_(controller->config().geometry.total_blocks(), 0),
      last_write_(controller->config().geometry.total_blocks(), 0),
      is_free_(controller->config().geometry.total_blocks(), true),
      is_active_(controller->config().geometry.total_blocks(), false),
      placement_(WritePlacement::Create(controller->config().placement,
                                        controller->config().geometry)),
      gc_policy_(GcPolicy::Create(controller->config().gc.policy)),
      wear_leveler_(controller->config().wear),
      tracer_(controller->tracer()) {
  if (tracer_ != nullptr) {
    ftl_tracks_.reserve(luns_.size());
    for (std::uint32_t l = 0; l < luns_.size(); ++l) {
      ftl_tracks_.push_back(tracer_->RegisterTrack(
          trace::kPidTranslation, "ftl-lun-" + std::to_string(l)));
    }
    gc_policy_->set_tracer(
        tracer_,
        tracer_->RegisterTrack(trace::kPidTranslation, "gc-policy"));
  }
  const auto& g = geom();
  for (std::uint32_t l = 0; l < g.luns(); ++l) {
    const std::uint32_t channel = l / g.luns_per_channel;
    const std::uint32_t lun = l % g.luns_per_channel;
    for (std::uint32_t plane = 0; plane < g.planes_per_lun; ++plane) {
      for (std::uint32_t block = 0; block < g.blocks_per_plane; ++block) {
        luns_[l].free_blocks.push_back({channel, lun, plane, block});
      }
    }
  }
  controller_->SetRefreshListener(
      [this](const flash::BlockAddr& block) { OnRefreshRequest(block); });
}

double PageFtl::WriteAmplification() const {
  const std::uint64_t host = counters_.Get("host_pages_accepted");
  if (host == 0) return 0.0;
  const std::uint64_t programmed =
      controller_->counters().Get("pages_programmed");
  return static_cast<double>(programmed) / static_cast<double>(host);
}

void PageFtl::RegisterMetrics(metrics::MetricRegistry* m) {
  Ftl::RegisterMetrics(m);
  m->AddPolledCounter("ftl.wl_page_moves", [this] {
    return counters_.Get("wl_page_moves");
  });
  m->AddPolledCounter("ftl.blocks_retired", [this] {
    return counters_.Get("blocks_retired");
  });
  m->AddPolledCounter("ftl.pages_poisoned", [this] {
    return counters_.Get("pages_poisoned");
  });
  m->AddPolledCounter("ftl.refresh_runs", [this] {
    return counters_.Get("refresh_runs");
  });
  m->AddGauge("ftl.spare_blocks", [this] {
    return static_cast<double>(controller_->spare_blocks_total());
  });
  // Free-block gauges: the paper's GC trigger state. min catches the
  // LUN about to cross the low watermark, which the total can hide.
  m->AddGauge("ftl.free_blocks", [this] {
    std::size_t total = 0;
    for (const auto& l : luns_) total += l.free_blocks.size();
    return static_cast<double>(total);
  });
  m->AddGauge("ftl.min_free_blocks", [this] {
    if (luns_.empty()) return 0.0;
    std::size_t mn = luns_[0].free_blocks.size();
    for (const auto& l : luns_) {
      if (l.free_blocks.size() < mn) mn = l.free_blocks.size();
    }
    return static_cast<double>(mn);
  });
  m->AddGauge("ftl.gc_active_luns", [this] {
    std::size_t n = 0;
    for (const auto& l : luns_) n += l.gc_running ? 1 : 0;
    return static_cast<double>(n);
  });
  m->AddGauge("ftl.stalled_luns", [this] {
    std::size_t n = 0;
    for (const auto& l : luns_) n += l.stalled ? 1 : 0;
    return static_cast<double>(n);
  });
}

std::optional<flash::Ppa> PageFtl::Locate(Lba lba) const {
  if (lba >= logical_pages_ || !map_[lba].mapped || map_[lba].poisoned) {
    return std::nullopt;
  }
  return map_[lba].ppa;
}

// ---------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------

void PageFtl::Write(Lba lba, std::uint64_t token, WriteCallback cb,
                    trace::Ctx ctx) {
  if (lba >= logical_pages_) {
    PostGuarded(std::move(cb), Status::OutOfRange("write beyond device"));
    return;
  }
  if (controller_->read_only()) {
    counters_.Increment("writes_rejected_read_only");
    PostGuarded(std::move(cb),
                Status::ResourceExhausted(
                    "device is read-only: bad-block spares exhausted"));
    return;
  }
  counters_.Increment("host_writes");
  counters_.Increment("host_pages_accepted");
  PendingWrite* w = writes_.Acquire();
  w->lba = lba;
  w->token = token;
  w->seq = next_seq_++;
  w->epoch = epoch_;
  w->cb = std::move(cb);
  w->ctx = ctx;
  w->enq_t = controller_->sim()->Now();
  EnqueueWrite(w);
}

void PageFtl::WriteAtomic(std::vector<std::pair<Lba, std::uint64_t>> pages,
                          WriteCallback cb, trace::Ctx ctx) {
  if (pages.empty()) {
    PostGuarded(std::move(cb), Status::Ok());
    return;
  }
  if (controller_->read_only()) {
    counters_.Increment("writes_rejected_read_only");
    PostGuarded(std::move(cb),
                Status::ResourceExhausted(
                    "device is read-only: bad-block spares exhausted"));
    return;
  }
  for (const auto& [lba, token] : pages) {
    (void)token;
    if (lba >= logical_pages_) {
      PostGuarded(std::move(cb),
                  Status::OutOfRange("atomic write beyond device"));
      return;
    }
  }
  const std::uint64_t group = next_group_++;
  counters_.Increment("atomic_groups");
  counters_.Add("host_pages_accepted", pages.size());
  AtomicGroup& tracker = atomic_groups_[group];
  tracker.cb = std::move(cb);
  for (const auto& [lba, token] : pages) {
    PendingWrite* w = writes_.Acquire();
    w->lba = lba;
    w->token = token;
    w->seq = next_seq_++;
    w->group = group;
    w->epoch = epoch_;
    w->ctx = ctx;
    w->enq_t = controller_->sim()->Now();
    tracker.pages.emplace_back(lba, w->seq);
    EnqueueWrite(w);
  }
}

bool PageFtl::LunWedged(std::uint32_t lun) const {
  // A LUN is wedged when the host may not take a free block (reserve)
  // and garbage collection cannot mint one (every reclaimable block is
  // fully valid). Writes must go elsewhere until overwrites/trims of
  // its residents free something — the paper's point that a controller
  // needs the freedom to redirect writes across chips.
  const LunState& st = luns_[lun];
  if (st.free_blocks.size() > controller_->config().gc.reserve_blocks) {
    return false;
  }
  if (st.gc_running) return false;  // reclamation in progress
  return !GcFeasible(lun);
}

void PageFtl::EnqueueWrite(PendingWrite* w) {
  std::uint32_t lun = placement_->LunForWrite(w->lba);
  if (LunWedged(lun)) {
    const std::uint32_t n = static_cast<std::uint32_t>(luns_.size());
    for (std::uint32_t off = 1; off < n; ++off) {
      const std::uint32_t cand = (lun + off) % n;
      if (!LunWedged(cand)) {
        lun = cand;
        counters_.Increment("placement_redirects");
        break;
      }
    }
  }
  luns_[lun].host_queue.push_back(w);
  PumpLun(lun);
}

bool PageFtl::TakeFreeBlock(std::uint32_t lun, bool for_gc) {
  LunState& st = luns_[lun];
  if (st.free_blocks.empty()) return false;
  const auto& gc_cfg = controller_->config().gc;
  if (!for_gc && st.free_blocks.size() <= gc_cfg.reserve_blocks) {
    // The reserve is strictly for GC relocation writes: if the host
    // could drain it (even "just this once"), a later collection could
    // find itself with live pages to move and nowhere to put them.
    // Over-provisioning guarantees the host never legitimately needs
    // these blocks.
    return false;
  }
  free_wear_.clear();
  for (const auto& b : st.free_blocks) {
    free_wear_.push_back(controller_->flash()->GetBlockInfo(b).erase_count);
  }
  const std::size_t pick = wear_leveler_.SelectFreeBlock(
      free_wear_, /*prefer_worn=*/for_gc && st.collecting_wl);
  const flash::BlockAddr taken = st.free_blocks[pick];
  st.free_blocks.erase(st.free_blocks.begin() +
                       static_cast<std::ptrdiff_t>(pick));
  if (for_gc) {
    st.gc_active = taken;
    st.has_gc_active = true;
    st.gc_next_page = 0;
  } else {
    st.active = taken;
    st.has_active = true;
    st.next_page = 0;
  }
  is_free_[FlatBlock(taken)] = false;
  is_active_[FlatBlock(taken)] = true;
  return true;
}

void PageFtl::PumpLun(std::uint32_t lun) {
  LunState& st = luns_[lun];
  for (;;) {
    const bool use_gc = !st.gc_queue.empty();
    WriteQueue* queue = use_gc ? &st.gc_queue : &st.host_queue;
    if (queue->empty()) break;

    bool* has_active = use_gc ? &st.has_gc_active : &st.has_active;
    flash::BlockAddr* active = use_gc ? &st.gc_active : &st.active;
    std::uint32_t* next_page = use_gc ? &st.gc_next_page : &st.next_page;

    if (*has_active && *next_page == geom().pages_per_block) {
      is_active_[FlatBlock(*active)] = false;
      *has_active = false;
    }
    if (!*has_active) {
      if (!TakeFreeBlock(lun, use_gc)) {
        if (!use_gc) {
          // If this LUN is wedged (nothing reclaimable), hand its
          // queued writes to a live LUN instead of stalling them.
          if (LunWedged(lun) && !st.host_queue.empty()) {
            const std::uint32_t n =
                static_cast<std::uint32_t>(luns_.size());
            for (std::uint32_t off = 1; off < n; ++off) {
              const std::uint32_t cand = (lun + off) % n;
              if (!LunWedged(cand)) {
                counters_.Add("stall_reroutes", st.host_queue.size());
                luns_[cand].host_queue.splice_back(&st.host_queue);
                PumpLun(cand);
                return;
              }
            }
          }
          if (!st.stalled) {
            st.stalled = true;
            counters_.Increment("write_stalls");
          }
        }
        MaybeStartGc(lun);
        return;
      }
      st.stalled = false;
    }

    PendingWrite* w = queue->pop_front();
    w->lun = lun;
    w->ppa = flash::Ppa{active->channel, active->lun, active->plane,
                        active->block, (*next_page)++};
    w->flat = FlatBlock(*active);
    ++in_flight_[w->flat];
    const SimTime now = controller_->sim()->Now();
    last_write_[w->flat] = now;

    // Mapping/placement stage: from FTL enqueue to flash issue (covers
    // free-block waits and GC-reserve stalls).
    const trace::Ctx ctx = w->ctx;
    if (tracer_ != nullptr && tracer_->enabled() && ctx.span != 0 &&
        now > w->enq_t) {
      tracer_->Record(trace::Stage::kMap, ctx.origin, ctx.span,
                      ctx.parent, ftl_tracks_[lun], w->enq_t, now, w->lba);
    }

    flash::PageData data;
    data.lba = w->is_commit_marker ? flash::kAtomicCommitLba : w->lba;
    data.seq = w->seq;
    data.token = w->token;
    data.group = w->group;
    auto done = [this, w](Status s) {
      --in_flight_[w->flat];
      OnProgramDone(w, std::move(s));
    };
    static_assert(ssd::Controller::OpCallback::fits<decltype(done)>());
    controller_->ProgramPage(w->ppa, data, std::move(done), ctx);
  }
  MaybeStartGc(lun);
}

void PageFtl::OnProgramDone(PendingWrite* slot, Status st) {
  if (slot->epoch != epoch_) return;  // power-cycled away
  // Recycle the slot before anything can re-enter: the callbacks below
  // may submit new writes.
  PendingWrite w = std::move(*slot);
  writes_.Release(slot);
  const std::uint32_t lun = w.lun;
  const flash::Ppa ppa = w.ppa;
  if (!st.ok()) {
    counters_.Increment("program_failures");
    if (w.group != 0 && !w.is_commit_marker) {
      OnAtomicPageProgrammed(w.group, w.lba, w.seq, ppa, st);
    } else if (w.is_relocate) {
      RelocationDone(lun);
    } else if (w.cb) {
      w.cb(std::move(st));
    }
    PumpLun(lun);
    return;
  }
  if (w.is_commit_marker) {
    if (w.is_relocate) {
      // A relocated copy of a commit marker: adopt the new location.
      auto it = atomic_live_.find(w.group);
      if (it != atomic_live_.end()) {
        (void)controller_->flash()->MarkInvalid(it->second.marker);
        it->second.marker = ppa;
      } else {
        (void)controller_->flash()->MarkInvalid(ppa);
      }
      RelocationDone(lun);
    } else {
      counters_.Increment("atomic_commit_pages");
      auto it = atomic_groups_.find(w.group);
      if (it != atomic_groups_.end()) {
        atomic_live_[w.group] =
            LiveGroup{static_cast<std::uint32_t>(it->second.programmed), ppa};
        CommitAtomicGroup(w.group);
      } else {
        (void)controller_->flash()->MarkInvalid(ppa);
      }
    }
  } else if (w.group != 0 && !w.is_relocate) {
    OnAtomicPageProgrammed(w.group, w.lba, w.seq, ppa, Status::Ok());
  } else {
    if (w.is_relocate && w.group != 0) {
      // Relocated copy of a committed atomic page: keep the live count
      // balanced (ApplyMapping will decrement one copy).
      auto it = atomic_live_.find(w.group);
      if (it != atomic_live_.end()) ++it->second.count;
    }
    ApplyMapping(w, ppa);
    if (w.is_relocate) {
      RelocationDone(lun);
    } else if (w.cb) {
      w.cb(Status::Ok());
    }
  }
  PumpLun(lun);
}

void PageFtl::InvalidatePage(const flash::Ppa& ppa) {
  auto peek = controller_->flash()->Peek(ppa);
  (void)controller_->flash()->MarkInvalid(ppa);
  if (!peek.ok()) return;
  const flash::PageData& d = *peek;
  if (d.group == 0 || d.lba == flash::kAtomicCommitLba) return;
  auto it = atomic_live_.find(d.group);
  if (it == atomic_live_.end()) return;
  if (--it->second.count == 0) {
    // Last live page of the group is gone; retire the commit marker.
    (void)controller_->flash()->MarkInvalid(it->second.marker);
    atomic_live_.erase(it);
  }
}

void PageFtl::ApplyMapping(const PendingWrite& w, const flash::Ppa& ppa) {
  MapEntry& e = map_[w.lba];
  if (w.is_relocate) {
    if (e.mapped && e.seq == w.seq && e.ppa == w.expected_old) {
      if (!e.poisoned) InvalidatePage(e.ppa);
      e.ppa = ppa;
      // A copy taken before the cells died rescues a poisoned LBA.
      e.poisoned = false;
      if (migration_listener_) {
        migration_listener_(w.lba, w.expected_old, ppa);
      }
    } else {
      // The host overwrote or trimmed the LBA mid-relocation; the fresh
      // copy is garbage.
      InvalidatePage(ppa);
    }
    return;
  }
  if (w.seq > e.seq) {
    // Note: an unmapped entry still carries the seq of the trim that
    // unmapped it — a write submitted before that trim must not win.
    // A poisoned entry's old ppa was invalidated at poison time and may
    // point at recycled flash — never touch it again.
    if (e.mapped && !e.poisoned) InvalidatePage(e.ppa);
    e.ppa = ppa;
    e.seq = w.seq;
    e.mapped = true;
    e.poisoned = false;
  } else {
    // Superseded while in flight (a newer write or trim completed
    // first); this copy was never visible.
    InvalidatePage(ppa);
  }
}

// ---------------------------------------------------------------------
// Atomic groups
// ---------------------------------------------------------------------

void PageFtl::OnAtomicPageProgrammed(std::uint64_t group, Lba /*lba*/,
                                     SequenceNumber /*seq*/, flash::Ppa ppa,
                                     Status st) {
  auto it = atomic_groups_.find(group);
  if (it == atomic_groups_.end()) return;
  AtomicGroup& tracker = it->second;
  if (!st.ok()) {
    tracker.failed = true;
  } else {
    tracker.ppas.push_back(ppa);
  }
  ++tracker.programmed;
  if (tracker.programmed < tracker.pages.size()) return;

  if (tracker.failed) {
    // Abort: programmed copies are garbage (never mapped, no marker).
    for (const auto& p : tracker.ppas) {
      (void)controller_->flash()->MarkInvalid(p);
    }
    if (tracker.cb) tracker.cb(Status::Internal("atomic group failed"));
    atomic_groups_.erase(it);
    return;
  }
  // All pages durable: write the commit marker, then flip mappings.
  PendingWrite* marker = writes_.Acquire();
  marker->lba = 0;  // ignored; PageData.lba becomes kAtomicCommitLba
  marker->token = group;
  marker->seq = next_seq_++;
  marker->group = group;
  marker->is_commit_marker = true;
  marker->epoch = epoch_;
  EnqueueWrite(marker);
}

void PageFtl::CommitAtomicGroup(std::uint64_t group) {
  auto it = atomic_groups_.find(group);
  if (it == atomic_groups_.end()) return;
  AtomicGroup tracker = std::move(it->second);
  atomic_groups_.erase(it);

  // Flip each page's mapping, respecting sequence ordering against any
  // concurrent writes/trims. ppas arrived in completion order, which may
  // differ from issue order across LUNs, so match them to (lba, seq) by
  // reading the page OOB (Peek is un-timed).
  assert(tracker.ppas.size() == tracker.pages.size());
  for (const flash::Ppa& ppa : tracker.ppas) {
    auto peek = controller_->flash()->Peek(ppa);
    if (!peek.ok()) continue;
    PendingWrite w;
    w.lba = peek->lba;
    w.seq = peek->seq;
    w.group = group;
    ApplyMapping(w, ppa);
  }
  if (tracker.cb) tracker.cb(Status::Ok());
}

// ---------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------

void PageFtl::Read(Lba lba, ReadCallback cb, trace::Ctx ctx) {
  if (lba >= logical_pages_) {
    PostGuarded(std::move(cb),
                StatusOr<std::uint64_t>(
                    Status::OutOfRange("read beyond device")));
    return;
  }
  counters_.Increment("host_reads");
  ReadOp* op = reads_.Acquire();
  op->lba = lba;
  op->ctx = ctx;
  op->cb = std::move(cb);
  ReadAttempt(op);
}

void PageFtl::ReadAttempt(ReadOp* op) {
  const MapEntry& e = map_[op->lba];
  if (!e.mapped) {
    counters_.Increment("host_reads_unmapped");
    PostRead(op, Status::Ok());
    return;
  }
  if (e.poisoned) {
    // The data is known-lost and the physical page may be recycled:
    // answer DataLoss without touching flash (definite, repeatable).
    counters_.Increment("host_reads_poisoned");
    PostRead(op, Status::DataLoss("lba " + std::to_string(op->lba) +
                                  " lost to media"));
    return;
  }
  op->ppa = e.ppa;
  op->expected_seq = e.seq;
  op->epoch = epoch_;
  auto done = [this, op](StatusOr<flash::PageData> res) {
    OnReadDone(op, std::move(res));
  };
  static_assert(ssd::Controller::ReadCallback::fits<decltype(done)>());
  controller_->ReadPage(op->ppa, std::move(done), op->ctx);
}

void PageFtl::OnReadDone(ReadOp* op, StatusOr<flash::PageData> res) {
  if (op->epoch != epoch_) return;  // power-cycled away
  if (res.ok() && res->lba == op->lba && res->seq == op->expected_seq) {
    FinishRead(op, res->token);
    return;
  }
  if (!res.ok() && res.status().IsDataLoss()) {
    // The whole retry ladder failed: the payload is gone for good.
    // Poison so later reads answer without re-sensing.
    counters_.Increment("read_failures");
    PoisonMapping(op->lba, op->ppa, op->expected_seq);
    FinishRead(op, res.status());
    return;
  }
  // The page moved (GC/WL) or was erased between the mapping lookup and
  // the array read; chase the current mapping.
  counters_.Increment("read_retries");
  if (op->tries + 1 > kMaxReadRetries) {
    FinishRead(op, Status::Internal("read retry limit for lba " +
                                    std::to_string(op->lba)));
    return;
  }
  ++op->tries;
  ReadAttempt(op);
}

void PageFtl::PostRead(ReadOp* op, Status status) {
  op->status = std::move(status);
  const std::uint64_t epoch = epoch_;
  auto post = [this, op, epoch] {
    if (epoch != epoch_) return;  // the slot died with the power cycle
    if (op->status.ok()) {
      FinishRead(op, std::uint64_t{0});
    } else {
      FinishRead(op, std::move(op->status));
    }
  };
  static_assert(sim::InplaceCallback::fits<decltype(post)>());
  controller_->sim()->Schedule(0, std::move(post));
}

void PageFtl::FinishRead(ReadOp* op, StatusOr<std::uint64_t> result) {
  ReadCallback cb = std::move(op->cb);
  reads_.Release(op);
  cb(std::move(result));
}

// ---------------------------------------------------------------------
// Trim
// ---------------------------------------------------------------------

void PageFtl::Trim(Lba lba, WriteCallback cb, trace::Ctx /*ctx*/) {
  if (lba >= logical_pages_) {
    PostGuarded(std::move(cb), Status::OutOfRange("trim beyond device"));
    return;
  }
  counters_.Increment("trims");
  MapEntry& e = map_[lba];
  e.seq = next_seq_++;
  std::uint32_t lun_of_old = ~0u;
  if (e.mapped) {
    if (!e.poisoned) {
      // (Poisoned: the old copy was invalidated at poison time and the
      // ppa may be recycled flash.)
      lun_of_old = e.ppa.GlobalLun(geom());
      InvalidatePage(e.ppa);
    }
    e.mapped = false;
    e.poisoned = false;
  }
  PostGuarded(std::move(cb), Status::Ok());
  if (lun_of_old != ~0u) MaybeStartGc(lun_of_old);
}

// ---------------------------------------------------------------------
// Garbage collection & wear leveling
// ---------------------------------------------------------------------

const std::vector<BlockMeta>& PageFtl::GcCandidates(
    std::uint32_t lun) const {
  const auto& g = geom();
  std::vector<BlockMeta>& out = gc_candidates_;
  out.clear();
  const std::uint32_t channel = lun / g.luns_per_channel;
  const std::uint32_t lun_in_channel = lun % g.luns_per_channel;
  for (std::uint32_t plane = 0; plane < g.planes_per_lun; ++plane) {
    for (std::uint32_t block = 0; block < g.blocks_per_plane; ++block) {
      const flash::BlockAddr addr{channel, lun_in_channel, plane, block};
      const std::uint64_t flat = FlatBlock(addr);
      if (is_free_[flat] || is_active_[flat] || in_flight_[flat] > 0) {
        continue;
      }
      const flash::BlockInfo& bi = controller_->flash()->GetBlockInfo(addr);
      if (bi.bad || bi.write_point == 0) continue;
      out.push_back(
          BlockMeta{addr, bi.valid_pages, bi.erase_count, last_write_[flat]});
    }
  }
  return out;
}

bool PageFtl::GcFeasible(std::uint32_t lun) const {
  for (const auto& c : GcCandidates(lun)) {
    if (c.valid_pages < geom().pages_per_block) return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// Reliability: poisoning & refresh
// ---------------------------------------------------------------------

void PageFtl::PoisonMapping(Lba lba, const flash::Ppa& ppa,
                            SequenceNumber seq) {
  if (lba >= logical_pages_) return;
  MapEntry& e = map_[lba];
  if (!e.mapped || e.poisoned || e.seq != seq || !(e.ppa == ppa)) return;
  e.poisoned = true;
  counters_.Increment("pages_poisoned");
  // The copy is garbage now; let the owning block be collected/erased.
  InvalidatePage(ppa);
}

void PageFtl::PoisonLostPage(const flash::Ppa& ppa) {
  // The payload died but the OOB area is separately protected (same
  // assumption the PowerCycle rescan rests on): recover the identity of
  // the lost page from it.
  auto peek = controller_->flash()->Peek(ppa);
  if (!peek.ok()) return;
  if (peek->lba == flash::kAtomicCommitLba) {
    // A commit marker's payload is irrelevant; its OOB still proves the
    // group committed. Nothing to poison.
    return;
  }
  PoisonMapping(peek->lba, ppa, peek->seq);
}

void PageFtl::OnRefreshRequest(const flash::BlockAddr& block) {
  if (controller_->read_only()) return;
  const std::uint32_t lun = GlobalLun(block);
  luns_[lun].refresh_queue.push_back(block);
  counters_.Increment("refresh_requests");
  MaybeStartGc(lun);
}

bool PageFtl::MaybeStartRefresh(std::uint32_t lun) {
  LunState& st = luns_[lun];
  while (!st.refresh_queue.empty()) {
    const flash::BlockAddr block = st.refresh_queue.front();
    const std::uint64_t flat = FlatBlock(block);
    if (is_free_[flat] ||
        controller_->flash()->GetBlockInfo(block).bad) {
      // Already recycled or retired; nothing left to rescue.
      st.refresh_queue.pop_front();
      continue;
    }
    if (is_active_[flat] || in_flight_[flat] > 0) {
      // Still being written; retry at the next pump.
      return false;
    }
    st.refresh_queue.pop_front();
    st.gc_running = true;
    st.collecting_wl = false;
    st.gc_ctx = trace::Ctx{
        tracer_ != nullptr ? tracer_->NewSpan() : trace::SpanId{0}, 0,
        trace::Origin::kGc};
    st.gc_start = controller_->sim()->Now();
    counters_.Increment("refresh_runs");
    CollectBlock(lun, block, /*is_wl=*/false);
    return true;
  }
  return false;
}

void PageFtl::MaybeStartGc(std::uint32_t lun) {
  LunState& st = luns_[lun];
  if (st.gc_running) return;
  // Spares exhausted: every further erase is a liability and writes are
  // rejected anyway — stop background work, keep serving reads.
  if (controller_->read_only()) return;
  // Refresh requests outrank the watermark: the block is actively
  // decaying and must be rescued before its reads go uncorrectable.
  if (MaybeStartRefresh(lun)) return;
  if (st.free_blocks.size() >=
      controller_->config().gc.low_watermark_blocks) {
    MaybeStartStaticWl(lun);
    return;
  }
  auto victim = gc_policy_->PickVictim(GcCandidates(lun),
                                       controller_->sim()->Now(),
                                       geom().pages_per_block);
  if (!victim.has_value()) return;
  st.gc_running = true;
  st.collecting_wl = false;
  st.gc_ctx = trace::Ctx{
      tracer_ != nullptr ? tracer_->NewSpan() : trace::SpanId{0}, 0,
      trace::Origin::kGc};
  st.gc_start = controller_->sim()->Now();
  counters_.Increment("gc_runs");
  CollectBlock(lun, *victim, /*is_wl=*/false);
}

void PageFtl::MaybeStartStaticWl(std::uint32_t lun) {
  LunState& st = luns_[lun];
  if (st.gc_running || !wear_leveler_.config().static_enabled) return;
  // Pacing: a migration is only worth one per several GC erases —
  // otherwise a stubborn spread (e.g. a young mostly-invalid block GC
  // will soon handle anyway) causes a migration storm.
  if (st.erases_since_wl <
      wear_leveler_.config().migrate_interval_erases) {
    return;
  }
  // Erase-count spread across this LUN's *data* blocks. Free blocks are
  // excluded: a young free block is available budget, not a problem —
  // only cold data pinning a young block wastes its cycles.
  const std::vector<BlockMeta>& candidates = GcCandidates(lun);
  std::uint32_t min_e = ~0u;
  std::uint32_t max_e = 0;
  for (const auto& c : candidates) {
    min_e = std::min(min_e, c.erase_count);
    max_e = std::max(max_e, c.erase_count);
  }
  if (min_e == ~0u || !wear_leveler_.ShouldMigrate(min_e, max_e)) return;
  auto cold =
      wear_leveler_.PickColdBlock(candidates, geom().pages_per_block);
  if (!cold.has_value()) return;
  st.gc_running = true;
  st.collecting_wl = true;
  st.gc_ctx = trace::Ctx{
      tracer_ != nullptr ? tracer_->NewSpan() : trace::SpanId{0}, 0,
      trace::Origin::kWearLevel};
  st.gc_start = controller_->sim()->Now();
  counters_.Increment("wl_runs");
  CollectBlock(lun, *cold, /*is_wl=*/true);
}

void PageFtl::CollectBlock(std::uint32_t lun, flash::BlockAddr victim,
                           bool is_wl) {
  LunState& st = luns_[lun];
  const auto& bi = controller_->flash()->GetBlockInfo(victim);
  st.gc_live.clear();
  for (std::uint32_t p = 0; p < bi.write_point; ++p) {
    const flash::Ppa ppa{victim.channel, victim.lun, victim.plane,
                         victim.block, p};
    if (controller_->flash()->GetPageState(ppa) == flash::PageState::kValid) {
      st.gc_live.push_back(ppa);
    }
  }
  counters_.Add(is_wl ? "wl_page_moves" : "gc_page_moves",
                st.gc_live.size());
  if (st.gc_live.empty()) {
    FinishCollect(lun, victim, is_wl);
    return;
  }
  st.gc_victim = victim;
  st.gc_remaining = st.gc_live.size();
  for (const auto& ppa : st.gc_live) RelocatePage(lun, ppa, is_wl);
}

void PageFtl::RelocatePage(std::uint32_t lun, flash::Ppa ppa, bool is_wl) {
  const std::uint64_t epoch = epoch_;
  counters_.Increment(is_wl ? "wl_reads" : "gc_reads");
  auto copy = [this, lun, ppa, epoch](StatusOr<flash::PageData> res) {
    if (epoch != epoch_) return;
    if (!res.ok()) {
      // ECC death during GC: the copy is lost. Poison the mapping
      // *before* the victim erase is allowed to proceed — leaving it
      // pointing into the about-to-be-recycled block would let a later
      // host read return a different LBA's data.
      counters_.Increment("gc_read_failures");
      PoisonLostPage(ppa);
      RelocationDone(lun);
      return;
    }
    const flash::PageData& d = *res;
    PendingWrite* w = writes_.Acquire();
    w->is_relocate = true;
    w->seq = d.seq;
    w->token = d.token;
    w->group = d.group;
    w->epoch = epoch_;
    w->expected_old = ppa;
    w->ctx = luns_[lun].gc_ctx;
    w->enq_t = controller_->sim()->Now();
    if (d.lba == flash::kAtomicCommitLba) {
      w->is_commit_marker = true;
      w->lba = 0;
    } else {
      w->lba = d.lba;
    }
    // Relocations stay on the victim's LUN and jump the host queue.
    luns_[lun].gc_queue.push_back(w);
    PumpLun(lun);
  };
  static_assert(ssd::Controller::ReadCallback::fits<decltype(copy)>());
  controller_->ReadPage(ppa, std::move(copy), luns_[lun].gc_ctx);
}

void PageFtl::RelocationDone(std::uint32_t lun) {
  LunState& st = luns_[lun];
  if (--st.gc_remaining == 0) {
    FinishCollect(lun, st.gc_victim, st.collecting_wl);
  }
}

void PageFtl::FinishCollect(std::uint32_t lun, flash::BlockAddr victim,
                            bool is_wl) {
  const std::uint64_t epoch = epoch_;
  auto erased = [this, lun, victim, epoch, is_wl](Status st) {
    if (epoch != epoch_) return;
    counters_.Increment(is_wl ? "wl_erases" : "gc_erases");
    LunState& lst = luns_[lun];
    if (is_wl) {
      lst.erases_since_wl = 0;
    } else {
      ++lst.erases_since_wl;
    }
    if (st.ok()) {
      lst.free_blocks.push_back(victim);
      is_free_[FlatBlock(victim)] = true;
    } else {
      // Erase failure retired the block (already marked bad).
      counters_.Increment("blocks_retired");
    }
    // The collection as one interval on the LUN's FTL track: pick
    // to erase-done, relocation traffic included.
    if (tracer_ != nullptr && tracer_->enabled() &&
        lst.gc_ctx.span != 0) {
      tracer_->Record(trace::Stage::kGc, lst.gc_ctx.origin,
                      lst.gc_ctx.span, 0, ftl_tracks_[lun],
                      lst.gc_start, controller_->sim()->Now(),
                      victim.block);
    }
    lst.gc_ctx = trace::Ctx{};
    lst.gc_running = false;
    lst.collecting_wl = false;
    // Give static wear leveling a turn between collections — under
    // sustained churn the free pool never recovers above the GC
    // watermark, and WL would otherwise starve.
    MaybeStartStaticWl(lun);
    PumpLun(lun);
  };
  static_assert(ssd::Controller::OpCallback::fits<decltype(erased)>());
  controller_->EraseBlock(victim, std::move(erased), luns_[lun].gc_ctx);
}

// ---------------------------------------------------------------------
// Power loss + OOB-scan recovery
// ---------------------------------------------------------------------

Status PageFtl::PowerCycle() {
  ++epoch_;
  // The controller's in-flight operations die with the power too — an
  // erase or program still "in the air" must not mutate cells after the
  // OOB rescan below has rebuilt the mapping from them.
  controller_->PowerCycle();
  counters_.Increment("power_cycles");
  for (auto& st : luns_) {
    st.host_queue.clear();
    st.gc_queue.clear();
    st.has_active = false;
    st.next_page = 0;
    st.has_gc_active = false;
    st.gc_next_page = 0;
    st.gc_running = false;
    st.stalled = false;
    st.free_blocks.clear();
    st.gc_ctx = trace::Ctx{};
    st.gc_start = 0;
    st.gc_remaining = 0;
    st.refresh_queue.clear();
  }
  // Every queued or in-flight op died with the power: the controller
  // drops in-flight continuations, so no slot is referenced any more.
  writes_.ReleaseAll();
  reads_.ReleaseAll();
  atomic_groups_.clear();
  atomic_live_.clear();
  std::fill(in_flight_.begin(), in_flight_.end(), 0);
  std::fill(is_free_.begin(), is_free_.end(), false);
  std::fill(is_active_.begin(), is_active_.end(), false);
  map_.assign(logical_pages_, MapEntry{});

  const auto& g = geom();
  flash::FlashArray* flash = controller_->flash();

  // Pass 1: find commit markers (any programmed marker commits its
  // group — see DESIGN.md on marker lifetime).
  std::unordered_set<std::uint64_t> committed;
  std::unordered_map<std::uint64_t, flash::Ppa> marker_of;
  const std::uint64_t total_pages = g.total_pages();
  for (std::uint64_t f = 0; f < total_pages; ++f) {
    const flash::Ppa ppa = flash::Ppa::FromFlat(g, f);
    if (flash->GetPageState(ppa) == flash::PageState::kFree) continue;
    auto peek = flash->Peek(ppa);
    if (!peek.ok()) continue;
    if (peek->lba == flash::kAtomicCommitLba) {
      committed.insert(peek->group);
      marker_of[peek->group] = ppa;
    }
  }

  // Pass 2: pick the newest eligible copy of every LBA.
  struct Best {
    flash::Ppa ppa;
    SequenceNumber seq = 0;
    std::uint64_t token = 0;
    std::uint64_t group = 0;
    bool set = false;
  };
  std::unordered_map<Lba, Best> best;
  SequenceNumber max_seq = 0;
  std::uint64_t max_group = 0;
  for (std::uint64_t f = 0; f < total_pages; ++f) {
    const flash::Ppa ppa = flash::Ppa::FromFlat(g, f);
    if (flash->GetPageState(ppa) == flash::PageState::kFree) continue;
    auto peek = flash->Peek(ppa);
    if (!peek.ok()) continue;
    max_seq = std::max(max_seq, peek->seq);
    max_group = std::max(max_group, peek->group);
    if (peek->lba == flash::kAtomicCommitLba) continue;
    if (peek->group != 0 && committed.count(peek->group) == 0) {
      continue;  // uncommitted atomic page: never visible
    }
    if (peek->lba >= logical_pages_) continue;  // corrupt OOB; skip
    Best& b = best[peek->lba];
    if (!b.set || peek->seq > b.seq) {
      b = Best{ppa, peek->seq, peek->token, peek->group, true};
    }
  }

  // Pass 3: normalize page validity to the recovery decision and count
  // live pages per committed group.
  std::unordered_map<std::uint64_t, std::uint32_t> group_live;
  for (std::uint64_t f = 0; f < total_pages; ++f) {
    const flash::Ppa ppa = flash::Ppa::FromFlat(g, f);
    const flash::PageState state = flash->GetPageState(ppa);
    if (state == flash::PageState::kFree) continue;
    auto peek = flash->Peek(ppa);
    if (!peek.ok()) continue;
    bool want_valid = false;
    if (peek->lba != flash::kAtomicCommitLba &&
        peek->lba < logical_pages_) {
      auto it = best.find(peek->lba);
      want_valid = it != best.end() && it->second.set &&
                   it->second.ppa == ppa;
    }
    if (want_valid) {
      if (state == flash::PageState::kInvalid) {
        PB_RETURN_IF_ERROR(flash->Revalidate(ppa));
      }
      if (peek->group != 0) ++group_live[peek->group];
    } else if (peek->lba != flash::kAtomicCommitLba) {
      if (state == flash::PageState::kValid) {
        PB_RETURN_IF_ERROR(flash->MarkInvalid(ppa));
      }
    }
  }

  // Markers: keep one valid marker per group that still has live pages.
  for (const auto& [group, ppa] : marker_of) {
    const auto live_it = group_live.find(group);
    const bool keep = live_it != group_live.end() && live_it->second > 0;
    const flash::PageState state = flash->GetPageState(ppa);
    if (keep) {
      if (state == flash::PageState::kInvalid) {
        PB_RETURN_IF_ERROR(flash->Revalidate(ppa));
      }
      atomic_live_[group] = LiveGroup{live_it->second, ppa};
    } else if (state == flash::PageState::kValid) {
      PB_RETURN_IF_ERROR(flash->MarkInvalid(ppa));
    }
  }
  // Any duplicate markers (relocation races) beyond the remembered one
  // were already handled by pass-3 skipping markers; invalidate extras.
  for (std::uint64_t f = 0; f < total_pages; ++f) {
    const flash::Ppa ppa = flash::Ppa::FromFlat(g, f);
    if (flash->GetPageState(ppa) != flash::PageState::kValid) continue;
    auto peek = flash->Peek(ppa);
    if (!peek.ok() || peek->lba != flash::kAtomicCommitLba) continue;
    auto it = atomic_live_.find(peek->group);
    if (it == atomic_live_.end() || !(it->second.marker == ppa)) {
      PB_RETURN_IF_ERROR(flash->MarkInvalid(ppa));
    }
  }

  // Rebuild the logical map.
  for (const auto& [lba, b] : best) {
    if (!b.set) continue;
    map_[lba] = MapEntry{b.ppa, b.seq, true};
  }
  next_seq_ = max_seq + 1;
  next_group_ = max_group + 1;

  // Rebuild free lists: fully erased, non-bad blocks are free; partially
  // or fully written blocks wait for GC.
  for (std::uint32_t l = 0; l < g.luns(); ++l) {
    const std::uint32_t channel = l / g.luns_per_channel;
    const std::uint32_t lun_in_channel = l % g.luns_per_channel;
    for (std::uint32_t plane = 0; plane < g.planes_per_lun; ++plane) {
      for (std::uint32_t block = 0; block < g.blocks_per_plane; ++block) {
        const flash::BlockAddr addr{channel, lun_in_channel, plane, block};
        const auto& bi = flash->GetBlockInfo(addr);
        if (!bi.bad && bi.write_point == 0) {
          luns_[l].free_blocks.push_back(addr);
          is_free_[FlatBlock(addr)] = true;
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace postblock::ftl
