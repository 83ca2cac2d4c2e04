#include "ftl/hybrid_ftl.h"

#include <algorithm>
#include <utility>

namespace postblock::ftl {

HybridFtl::HybridFtl(ssd::Controller* controller)
    : controller_(controller),
      luns_(controller->config().geometry.luns()),
      wear_leveler_(controller->config().wear) {
  const auto& cfg = controller->config();
  const auto& g = cfg.geometry;
  const std::uint32_t pool = cfg.hybrid_log_blocks_per_lun;
  // Leave the log pool plus two spares per LUN outside the user space.
  const std::uint64_t per_lun_vblocks =
      g.blocks_per_lun() > pool + 2 ? g.blocks_per_lun() - pool - 2 : 1;
  const std::uint64_t cap_by_op = static_cast<std::uint64_t>(
      static_cast<double>(g.total_blocks()) * (1.0 - cfg.over_provisioning));
  user_vblocks_ = std::min<std::uint64_t>(per_lun_vblocks * g.luns(),
                                          cap_by_op);
  user_pages_ = user_vblocks_ * g.pages_per_block;
  map_.resize(user_vblocks_);
  for (std::uint32_t l = 0; l < g.luns(); ++l) {
    const std::uint32_t channel = l / g.luns_per_channel;
    const std::uint32_t lun = l % g.luns_per_channel;
    for (std::uint32_t plane = 0; plane < g.planes_per_lun; ++plane) {
      for (std::uint32_t block = 0; block < g.blocks_per_plane; ++block) {
        luns_[l].free_blocks.push_back({channel, lun, plane, block});
      }
    }
    luns_[l].logs.resize(pool);  // slots; LogBlock.vblock==~0 means free
    for (auto& slot : luns_[l].logs) slot.vblock = ~0ull;
  }
}

double HybridFtl::WriteAmplification() const {
  const std::uint64_t host = counters_.Get("host_pages_accepted");
  if (host == 0) return 0.0;
  return static_cast<double>(
             controller_->counters().Get("pages_programmed")) /
         static_cast<double>(host);
}

void HybridFtl::EnqueueOp(std::uint32_t lun, sim::InplaceCallback op) {
  luns_[lun].ops.push_back(std::move(op));
  RunNext(lun);
}

void HybridFtl::RunNext(std::uint32_t lun) {
  LunState& st = luns_[lun];
  if (st.busy || st.ops.empty()) return;
  st.busy = true;
  sim::InplaceCallback op = std::move(st.ops.front());
  st.ops.pop_front();
  op();
}

void HybridFtl::OpDone(std::uint32_t lun) {
  luns_[lun].busy = false;
  RunNext(lun);
}

bool HybridFtl::TakeFreeBlock(std::uint32_t lun, flash::BlockAddr* out) {
  LunState& st = luns_[lun];
  if (st.free_blocks.empty()) {
    counters_.Increment("free_list_exhausted");
    return false;
  }
  free_wear_.clear();
  for (const auto& b : st.free_blocks) {
    free_wear_.push_back(controller_->flash()->GetBlockInfo(b).erase_count);
  }
  const std::size_t pick = wear_leveler_.SelectFreeBlock(free_wear_);
  *out = st.free_blocks[pick];
  st.free_blocks.erase(st.free_blocks.begin() +
                       static_cast<std::ptrdiff_t>(pick));
  return true;
}

void HybridFtl::ReleaseBlock(std::uint32_t lun, flash::BlockAddr addr,
                             sim::InplaceCallback done) {
  controller_->EraseBlock(addr, [this, lun, addr,
                                 done = std::move(done)](Status st) {
    if (st.ok()) {
      luns_[lun].free_blocks.push_back(addr);
    } else {
      counters_.Increment("blocks_retired");
    }
    done();
  });
}

std::size_t HybridFtl::PickLogVictim(const LunState& st) const {
  std::size_t best = 0;
  std::uint32_t best_fill = 0;
  for (std::size_t i = 0; i < st.logs.size(); ++i) {
    if (st.logs[i].vblock == ~0ull) continue;
    if (st.logs[i].next_page >= best_fill) {
      best_fill = st.logs[i].next_page;
      best = i;
    }
  }
  return best;
}

void HybridFtl::Write(Lba lba, std::uint64_t token, WriteCallback cb,
                      trace::Ctx ctx) {
  if (lba >= user_pages_) {
    controller_->sim()->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::OutOfRange("write beyond device"));
    });
    return;
  }
  if (controller_->read_only()) {
    counters_.Increment("writes_rejected_read_only");
    controller_->sim()->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::ResourceExhausted(
          "device is read-only: bad-block spares exhausted"));
    });
    return;
  }
  counters_.Increment("host_writes");
  counters_.Increment("host_pages_accepted");
  const auto& g = controller_->config().geometry;
  const std::uint64_t vblock = lba / g.pages_per_block;
  const std::uint32_t off = static_cast<std::uint32_t>(lba % g.pages_per_block);
  const std::uint32_t lun = LunOf(vblock);
  const SequenceNumber seq = next_seq_++;

  EnqueueOp(lun, [this, vblock, off, token, seq, lun, ctx,
                  cb = std::move(cb)]() mutable {
    VBlockEntry& e = map_[vblock];
    const auto& g = controller_->config().geometry;
    const std::uint32_t write_point =
        e.data_mapped
            ? controller_->flash()->GetBlockInfo(e.data_phys).write_point
            : 0;
    auto finish = [this, lun, cb = std::move(cb)](Status st) {
      cb(std::move(st));
      OpDone(lun);
    };
    if (e.log_index < 0 && (!e.data_mapped || off >= write_point)) {
      // In-order append into the data block.
      if (!e.data_mapped) {
        if (!TakeFreeBlock(lun, &e.data_phys)) {
          finish(Status::ResourceExhausted("no free blocks on lun"));
          return;
        }
        e.data_mapped = true;
      }
      counters_.Increment("direct_writes");
      const flash::Ppa ppa{e.data_phys.channel, e.data_phys.lun,
                           e.data_phys.plane, e.data_phys.block, off};
      const Lba page_lba = vblock * g.pages_per_block + off;
      controller_->ProgramPage(ppa,
                               flash::PageData{page_lba, seq, token, 0},
                               std::move(finish), ctx);
      return;
    }
    WriteToLog(lun, vblock, off, token, seq, std::move(finish), ctx);
  });
}

void HybridFtl::WriteToLog(std::uint32_t lun, std::uint64_t vblock,
                           std::uint32_t off, std::uint64_t token,
                           SequenceNumber seq, WriteCallback done,
                           trace::Ctx ctx) {
  LunState& st = luns_[lun];
  VBlockEntry& e = map_[vblock];
  const auto& g = controller_->config().geometry;

  if (e.log_index < 0) {
    // Need a log slot; evict (merge) the fullest victim if the pool is
    // dry — the thrashing that makes scattered writes expensive here.
    std::int32_t free_slot = -1;
    for (std::size_t i = 0; i < st.logs.size(); ++i) {
      if (st.logs[i].vblock == ~0ull) {
        free_slot = static_cast<std::int32_t>(i);
        break;
      }
    }
    if (free_slot < 0) {
      const std::size_t victim_slot = PickLogVictim(st);
      const std::uint64_t victim_vb = st.logs[victim_slot].vblock;
      counters_.Increment("log_evictions");
      MergeVBlock(lun, victim_vb,
                  [this, lun, vblock, off, token, seq, ctx,
                   done = std::move(done)](Status merge_st) mutable {
                    if (!merge_st.ok()) {
                      done(std::move(merge_st));
                      return;
                    }
                    WriteToLog(lun, vblock, off, token, seq,
                               std::move(done), ctx);
                  });
      return;
    }
    LogBlock& log = st.logs[free_slot];
    if (!TakeFreeBlock(lun, &log.phys)) {
      controller_->sim()->Schedule(0, [done = std::move(done)]() mutable {
        done(Status::ResourceExhausted("no free blocks on lun"));
      });
      return;
    }
    log.vblock = vblock;
    log.next_page = 0;
    log.offset_map.assign(g.pages_per_block, kUnmappedPage);
    log.sequential_so_far = true;
    e.log_index = free_slot;
  }

  LogBlock& log = st.logs[static_cast<std::size_t>(e.log_index)];
  if (log.next_page >= g.pages_per_block) {
    // Log full: merge, then retry (the retry lands on the direct or a
    // fresh-log path).
    MergeVBlock(lun, vblock,
                [this, lun, vblock, off, token, seq, ctx,
                 done = std::move(done)](Status merge_st) mutable {
                  if (!merge_st.ok()) {
                    done(std::move(merge_st));
                    return;
                  }
                  WriteToLog(lun, vblock, off, token, seq, std::move(done),
                             ctx);
                });
    return;
  }

  const std::uint32_t page = log.next_page++;
  if (off != page) log.sequential_so_far = false;
  // Invalidate the superseded copy.
  if (log.offset_map[off] != kUnmappedPage) {
    const flash::Ppa prev{log.phys.channel, log.phys.lun, log.phys.plane,
                          log.phys.block, log.offset_map[off]};
    (void)controller_->flash()->MarkInvalid(prev);
  } else if (e.data_mapped) {
    const flash::Ppa prev{e.data_phys.channel, e.data_phys.lun,
                          e.data_phys.plane, e.data_phys.block, off};
    if (controller_->flash()->GetPageState(prev) ==
        flash::PageState::kValid) {
      (void)controller_->flash()->MarkInvalid(prev);
    }
  }
  log.offset_map[off] = page;
  counters_.Increment("log_appends");
  const flash::Ppa dst{log.phys.channel, log.phys.lun, log.phys.plane,
                       log.phys.block, page};
  const Lba page_lba = vblock * g.pages_per_block + off;
  controller_->ProgramPage(dst, flash::PageData{page_lba, seq, token, 0},
                           std::move(done), ctx);
}

void HybridFtl::MergeVBlock(std::uint32_t lun, std::uint64_t vblock,
                            WriteCallback done) {
  LunState& st = luns_[lun];
  VBlockEntry& e = map_[vblock];
  const auto& g = controller_->config().geometry;

  const std::int32_t slot = e.log_index;
  LogBlock* log = slot >= 0 ? &st.logs[static_cast<std::size_t>(slot)]
                            : nullptr;

  // Switch merge: a full, perfectly sequential log *is* the new data
  // block — one erase, zero copies.
  if (log != nullptr && log->next_page == g.pages_per_block &&
      log->sequential_so_far) {
    counters_.Increment("switch_merges");
    const bool had_data = e.data_mapped;
    const flash::BlockAddr old_data = e.data_phys;
    e.data_phys = log->phys;
    e.data_mapped = true;
    e.log_index = -1;
    log->vblock = ~0ull;
    if (!had_data) {
      controller_->sim()->Schedule(
          0, [done = std::move(done)]() { done(Status::Ok()); });
      return;
    }
    ReleaseBlock(lun, old_data,
                 [done = std::move(done)]() { done(Status::Ok()); });
    return;
  }

  counters_.Increment("full_merges");
  // Claim the destination before touching the log slot: on exhaustion
  // the vblock's data+log mappings stay intact and readable.
  flash::BlockAddr merged;
  if (!TakeFreeBlock(lun, &merged)) {
    controller_->sim()->Schedule(0, [done = std::move(done)]() {
      done(Status::ResourceExhausted("no free blocks on lun"));
    });
    return;
  }
  MergeJob* job = merges_.Acquire();
  job->lun = lun;
  job->vblock = vblock;
  job->merged = merged;
  job->had_data = e.data_mapped;
  if (e.data_mapped) job->old_data = e.data_phys;
  if (log != nullptr) {
    job->had_log = true;
    job->old_log = log->phys;
    job->offset_map = log->offset_map;
    log->vblock = ~0ull;  // slot released up front (merge owns the block)
    e.log_index = -1;
  }
  job->done = std::move(done);
  MergeStep(job);
}

void HybridFtl::MergeStep(MergeJob* job) {
  const auto& g = controller_->config().geometry;
  if (job->page >= g.pages_per_block) {
    map_[job->vblock] = VBlockEntry{job->merged, true, -1};
    if (job->had_data) {
      ReleaseBlock(job->lun, job->old_data,
                   [this, job]() { ReleaseMergedLog(job); });
    } else {
      ReleaseMergedLog(job);
    }
    return;
  }
  const std::uint32_t p = job->page++;
  // Newest copy: log wins over data.
  flash::Ppa src;
  bool have_src = false;
  if (job->had_log && p < job->offset_map.size() &&
      job->offset_map[p] != kUnmappedPage) {
    src = flash::Ppa{job->old_log.channel, job->old_log.lun,
                     job->old_log.plane, job->old_log.block,
                     job->offset_map[p]};
    have_src = controller_->flash()->GetPageState(src) ==
               flash::PageState::kValid;
  }
  if (!have_src && job->had_data) {
    src = flash::Ppa{job->old_data.channel, job->old_data.lun,
                     job->old_data.plane, job->old_data.block, p};
    have_src = controller_->flash()->GetPageState(src) ==
               flash::PageState::kValid;
  }
  if (!have_src) {
    MergeStep(job);
    return;
  }
  counters_.Increment("merge_page_copies");
  const flash::Ppa dst{job->merged.channel, job->merged.lun,
                       job->merged.plane, job->merged.block, p};
  auto copied = [this, job, dst](StatusOr<flash::PageData> res) {
    if (!res.ok()) {
      counters_.Increment("merge_read_failures");
      MergeStep(job);
      return;
    }
    controller_->ProgramPage(dst, *res, [this, job](Status st) {
      if (!st.ok()) {
        FinishMerge(job, std::move(st));
        return;
      }
      ++job->produced;
      MergeStep(job);
    });
  };
  static_assert(ssd::Controller::ReadCallback::fits<decltype(copied)>());
  controller_->ReadPage(src, std::move(copied));
}

void HybridFtl::ReleaseMergedLog(MergeJob* job) {
  if (job->had_log) {
    ReleaseBlock(job->lun, job->old_log,
                 [this, job]() { FinishMerge(job, Status::Ok()); });
  } else {
    FinishMerge(job, Status::Ok());
  }
}

void HybridFtl::FinishMerge(MergeJob* job, Status st) {
  WriteCallback done = std::move(job->done);
  merges_.Release(job);
  done(std::move(st));
}

void HybridFtl::Read(Lba lba, ReadCallback cb, trace::Ctx ctx) {
  if (lba >= user_pages_) {
    controller_->sim()->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::OutOfRange("read beyond device"));
    });
    return;
  }
  counters_.Increment("host_reads");
  const auto& g = controller_->config().geometry;
  const std::uint64_t vblock = lba / g.pages_per_block;
  const std::uint32_t off = static_cast<std::uint32_t>(lba % g.pages_per_block);
  const std::uint32_t lun = LunOf(vblock);
  EnqueueOp(lun, [this, vblock, off, lun, ctx,
                  cb = std::move(cb)]() mutable {
    const VBlockEntry& e = map_[vblock];
    const LunState& st = luns_[lun];
    flash::Ppa src;
    bool have_src = false;
    if (e.log_index >= 0) {
      const LogBlock& log = st.logs[static_cast<std::size_t>(e.log_index)];
      if (log.offset_map[off] != kUnmappedPage) {
        src = flash::Ppa{log.phys.channel, log.phys.lun, log.phys.plane,
                         log.phys.block, log.offset_map[off]};
        have_src = controller_->flash()->GetPageState(src) ==
                   flash::PageState::kValid;
      }
    }
    if (!have_src && e.data_mapped) {
      src = flash::Ppa{e.data_phys.channel, e.data_phys.lun,
                       e.data_phys.plane, e.data_phys.block, off};
      have_src = controller_->flash()->GetPageState(src) ==
                 flash::PageState::kValid;
    }
    if (!have_src) {
      counters_.Increment("host_reads_unmapped");
      cb(std::uint64_t{0});
      OpDone(lun);
      return;
    }
    controller_->ReadPage(
        src,
        [this, lun, cb = std::move(cb)](StatusOr<flash::PageData> res) {
          if (!res.ok()) {
            counters_.Increment("read_failures");
            cb(res.status());
          } else {
            cb(res->token);
          }
          OpDone(lun);
        },
        ctx);
  });
}

void HybridFtl::Trim(Lba lba, WriteCallback cb, trace::Ctx /*ctx*/) {
  if (lba >= user_pages_) {
    controller_->sim()->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::OutOfRange("trim beyond device"));
    });
    return;
  }
  counters_.Increment("trims");
  const auto& g = controller_->config().geometry;
  const std::uint64_t vblock = lba / g.pages_per_block;
  const std::uint32_t off = static_cast<std::uint32_t>(lba % g.pages_per_block);
  const std::uint32_t lun = LunOf(vblock);
  EnqueueOp(lun, [this, vblock, off, lun, cb = std::move(cb)]() {
    VBlockEntry& e = map_[vblock];
    LunState& st = luns_[lun];
    if (e.log_index >= 0) {
      LogBlock& log = st.logs[static_cast<std::size_t>(e.log_index)];
      if (log.offset_map[off] != kUnmappedPage) {
        const flash::Ppa p{log.phys.channel, log.phys.lun, log.phys.plane,
                           log.phys.block, log.offset_map[off]};
        if (controller_->flash()->GetPageState(p) ==
            flash::PageState::kValid) {
          (void)controller_->flash()->MarkInvalid(p);
        }
        log.offset_map[off] = kUnmappedPage;
        cb(Status::Ok());
        OpDone(lun);
        return;
      }
    }
    if (e.data_mapped) {
      const flash::Ppa p{e.data_phys.channel, e.data_phys.lun,
                         e.data_phys.plane, e.data_phys.block, off};
      if (controller_->flash()->GetPageState(p) ==
          flash::PageState::kValid) {
        (void)controller_->flash()->MarkInvalid(p);
      }
    }
    cb(Status::Ok());
    OpDone(lun);
  });
}

}  // namespace postblock::ftl
