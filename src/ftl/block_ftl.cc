#include "ftl/block_ftl.h"

#include <algorithm>
#include <utility>

namespace postblock::ftl {

BlockFtl::BlockFtl(ssd::Controller* controller)
    : controller_(controller),
      user_vblocks_(static_cast<std::uint64_t>(
          static_cast<double>(controller->config().geometry.total_blocks()) *
          (1.0 - controller->config().over_provisioning))),
      user_pages_(user_vblocks_ *
                  controller->config().geometry.pages_per_block),
      map_(user_vblocks_),
      luns_(controller->config().geometry.luns()),
      wear_leveler_(controller->config().wear) {
  const auto& g = controller->config().geometry;
  for (std::uint32_t l = 0; l < g.luns(); ++l) {
    const std::uint32_t channel = l / g.luns_per_channel;
    const std::uint32_t lun = l % g.luns_per_channel;
    for (std::uint32_t plane = 0; plane < g.planes_per_lun; ++plane) {
      for (std::uint32_t block = 0; block < g.blocks_per_plane; ++block) {
        luns_[l].free_blocks.push_back({channel, lun, plane, block});
      }
    }
  }
}

double BlockFtl::WriteAmplification() const {
  const std::uint64_t host = counters_.Get("host_pages_accepted");
  if (host == 0) return 0.0;
  return static_cast<double>(
             controller_->counters().Get("pages_programmed")) /
         static_cast<double>(host);
}

void BlockFtl::EnqueueOp(std::uint32_t lun, sim::InplaceCallback op) {
  luns_[lun].ops.push_back(std::move(op));
  RunNext(lun);
}

void BlockFtl::RunNext(std::uint32_t lun) {
  LunState& st = luns_[lun];
  if (st.busy || st.ops.empty()) return;
  st.busy = true;
  sim::InplaceCallback op = std::move(st.ops.front());
  st.ops.pop_front();
  op();
}

void BlockFtl::OpDone(std::uint32_t lun) {
  luns_[lun].busy = false;
  RunNext(lun);
}

bool BlockFtl::TakeFreeBlock(std::uint32_t lun, flash::BlockAddr* out) {
  LunState& st = luns_[lun];
  if (st.free_blocks.empty()) {
    // Over-provisioning normally leaves spares beyond the user-visible
    // vblocks, but erase retirement eats into them permanently.
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

void BlockFtl::Write(Lba lba, std::uint64_t token, WriteCallback cb,
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
        e.mapped ? controller_->flash()->GetBlockInfo(e.phys).write_point
                 : 0;
    if (!e.mapped || off >= write_point) {
      // In-order append (possibly with a gap): the cheap path that makes
      // sequential writes fast on block-mapped devices.
      if (!e.mapped) {
        if (!TakeFreeBlock(lun, &e.phys)) {
          cb(Status::ResourceExhausted("no free blocks on lun"));
          OpDone(lun);
          return;
        }
        e.mapped = true;
      }
      counters_.Increment("direct_writes");
      const flash::Ppa ppa{e.phys.channel, e.phys.lun, e.phys.plane,
                           e.phys.block, off};
      const Lba lba = vblock * g.pages_per_block + off;
      controller_->ProgramPage(
          ppa, flash::PageData{lba, seq, token, 0},
          [this, lun, cb = std::move(cb)](Status st) {
            cb(std::move(st));
            OpDone(lun);
          },
          ctx);
      return;
    }
    // Overwrite or backwards write: copy-on-write merge of the block.
    // The merge's copies and erase carry the host write's span, so a
    // trace shows one random write dragging a whole block behind it.
    counters_.Increment("merges");
    Merge(lun, vblock, off, token, seq,
          [this, lun, cb = std::move(cb)](Status st) {
            cb(std::move(st));
            OpDone(lun);
          },
          ctx);
  });
}

void BlockFtl::Merge(std::uint32_t lun, std::uint64_t vblock,
                     std::uint64_t new_off_or_npos, std::uint64_t token,
                     SequenceNumber seq, WriteCallback done,
                     trace::Ctx ctx) {
  flash::BlockAddr new_phys;
  if (!TakeFreeBlock(lun, &new_phys)) {
    // No destination block: the merge (and the write that forced it)
    // cannot proceed. Nothing has been copied or erased yet, so the old
    // mapping stays intact and readable.
    controller_->sim()->Schedule(0, [done = std::move(done)]() {
      done(Status::ResourceExhausted("no free blocks on lun"));
    });
    return;
  }
  MergeJob* job = merges_.Acquire();
  job->lun = lun;
  job->vblock = vblock;
  job->new_off = new_off_or_npos;
  job->token = token;
  job->seq = seq;
  const VBlockEntry& e = map_[vblock];
  job->had_old = e.mapped;
  if (e.mapped) job->old_phys = e.phys;
  job->new_phys = new_phys;
  job->done = std::move(done);
  job->ctx = ctx;
  MergeStep(job);
}

void BlockFtl::MergeStep(MergeJob* job) {
  // Walk pages 0..ppb-1 in ascending order (constraint C3), taking the
  // new payload at new_off and copying live pages elsewhere.
  const auto& g = controller_->config().geometry;
  if (job->page >= g.pages_per_block) {
    // Remap, then erase the old block back into the free pool.
    map_[job->vblock] = VBlockEntry{job->new_phys, true};
    if (!job->had_old) {
      FinishMerge(job, Status::Ok());
      return;
    }
    auto erased = [this, job](Status st) {
      if (st.ok()) {
        luns_[job->lun].free_blocks.push_back(job->old_phys);
      } else {
        counters_.Increment("blocks_retired");
      }
      FinishMerge(job, Status::Ok());
    };
    static_assert(ssd::Controller::OpCallback::fits<decltype(erased)>());
    controller_->EraseBlock(job->old_phys, std::move(erased), job->ctx);
    return;
  }
  const std::uint32_t p = job->page++;
  const flash::Ppa dst{job->new_phys.channel, job->new_phys.lun,
                       job->new_phys.plane, job->new_phys.block, p};
  auto programmed = [this, job](Status st) {
    OnMergeProgram(job, std::move(st));
  };
  static_assert(ssd::Controller::OpCallback::fits<decltype(programmed)>());
  if (p == job->new_off) {
    const Lba page_lba = job->vblock * g.pages_per_block + p;
    controller_->ProgramPage(
        dst, flash::PageData{page_lba, job->seq, job->token, 0},
        std::move(programmed), job->ctx);
    return;
  }
  if (!job->had_old) {
    MergeStep(job);
    return;
  }
  const flash::Ppa src{job->old_phys.channel, job->old_phys.lun,
                       job->old_phys.plane, job->old_phys.block, p};
  if (controller_->flash()->GetPageState(src) !=
      flash::PageState::kValid) {
    MergeStep(job);
    return;
  }
  counters_.Increment("merge_page_copies");
  auto copied = [this, job, dst](StatusOr<flash::PageData> res) {
    if (!res.ok()) {
      // Unreadable page: drop it (data loss surfaces on host read).
      counters_.Increment("merge_read_failures");
      MergeStep(job);
      return;
    }
    controller_->ProgramPage(
        dst, *res,
        [this, job](Status st) { OnMergeProgram(job, std::move(st)); },
        job->ctx);
  };
  static_assert(ssd::Controller::ReadCallback::fits<decltype(copied)>());
  controller_->ReadPage(src, std::move(copied), job->ctx);
}

void BlockFtl::OnMergeProgram(MergeJob* job, Status st) {
  if (!st.ok()) {
    FinishMerge(job, std::move(st));
    return;
  }
  MergeStep(job);
}

void BlockFtl::FinishMerge(MergeJob* job, Status st) {
  WriteCallback done = std::move(job->done);
  merges_.Release(job);
  done(std::move(st));
}

void BlockFtl::Read(Lba lba, ReadCallback cb, trace::Ctx ctx) {
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
    if (!e.mapped) {
      counters_.Increment("host_reads_unmapped");
      cb(std::uint64_t{0});
      OpDone(lun);
      return;
    }
    const flash::Ppa ppa{e.phys.channel, e.phys.lun, e.phys.plane,
                         e.phys.block, off};
    if (controller_->flash()->GetPageState(ppa) !=
        flash::PageState::kValid) {
      counters_.Increment("host_reads_unmapped");
      cb(std::uint64_t{0});
      OpDone(lun);
      return;
    }
    controller_->ReadPage(
        ppa,
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

void BlockFtl::Trim(Lba lba, WriteCallback cb, trace::Ctx /*ctx*/) {
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
    const VBlockEntry& e = map_[vblock];
    if (e.mapped) {
      const flash::Ppa ppa{e.phys.channel, e.phys.lun, e.phys.plane,
                           e.phys.block, off};
      if (controller_->flash()->GetPageState(ppa) ==
          flash::PageState::kValid) {
        (void)controller_->flash()->MarkInvalid(ppa);
      }
    }
    cb(Status::Ok());
    OpDone(lun);
  });
}

}  // namespace postblock::ftl
