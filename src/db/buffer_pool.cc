#include "db/buffer_pool.h"

#include <algorithm>
#include <utility>

namespace postblock::db {

BufferPool::BufferPool(sim::Simulator* sim,
                       blocklayer::BlockDevice* device,
                       PageImageStore* images, std::size_t frames,
                       bool allow_steal)
    : sim_(sim),
      device_(device),
      images_(images),
      allow_steal_(allow_steal),
      slots_(frames),
      slot_of_(device->num_blocks(), kNil) {
  free_slots_.reserve(frames);
  for (std::size_t s = frames; s-- > 0;) {
    slots_[s].frame.bytes.assign(kPageBytes, 0);
    free_slots_.push_back(static_cast<std::uint32_t>(s));
  }
}

std::size_t BufferPool::dirty_count() const {
  std::size_t n = 0;
  for (const auto& [id, s] : order_) n += slots_[s].frame.dirty;
  return n;
}

void BufferPool::Unlink(std::uint32_t s) {
  Slot& slot = slots_[s];
  (slot.prev == kNil ? lru_head_ : slots_[slot.prev].next) = slot.next;
  (slot.next == kNil ? lru_tail_ : slots_[slot.next].prev) = slot.prev;
  slot.prev = slot.next = kNil;
}

void BufferPool::Touch(std::uint32_t s) {
  if (lru_head_ == s) return;
  Slot& slot = slots_[s];
  if (slot.prev != kNil) Unlink(s);  // linked and not the head
  slot.next = lru_head_;
  if (lru_head_ != kNil) slots_[lru_head_].prev = s;
  lru_head_ = s;
  if (lru_tail_ == kNil) lru_tail_ = s;
}

void BufferPool::Pin(PageId id, PinCallback cb) {
  if (id >= slot_of_.size()) slot_of_.resize(id + 1, kNil);
  const std::uint32_t s = slot_of_[id];
  if (s != kNil && !slots_[s].loading) {
    counters_.Increment("hits");
    Frame* f = &slots_[s].frame;
    ++f->pins;
    Touch(s);
    cb(f);
    return;
  }
  if (s != kNil) {
    slots_[s].waiters.push_back(std::move(cb));
    counters_.Increment("miss_waits");  // piggyback on in-flight load
    return;
  }
  counters_.Increment("misses");

  // Make room. Eviction is synchronous bookkeeping; in no-steal mode a
  // fully dirty pool is a configuration error surfaced to the caller.
  if (free_slots_.empty() && !EvictOne()) {
    cb(Status::ResourceExhausted(
        "buffer pool full of pinned/dirty pages (no-steal)"));
    return;
  }
  const std::uint32_t fresh = free_slots_.back();
  free_slots_.pop_back();
  slot_of_[id] = fresh;
  Slot& slot = slots_[fresh];
  slot.frame.id = id;
  slot.loading = true;
  slot.waiters.push_back(std::move(cb));
  LoadFrame(id, fresh);
}

bool BufferPool::EvictOne() {
  for (std::uint32_t s = lru_tail_; s != kNil; s = slots_[s].prev) {
    Frame* f = &slots_[s].frame;
    if (f->pins > 0) continue;
    if (f->dirty && !allow_steal_) continue;
    if (f->dirty) {
      // Steal mode: asynchronous write-back, frame leaves immediately
      // (the image registry keeps the bytes alive for the IO).
      counters_.Increment("steals");
      const std::uint64_t token = images_->Register(f->bytes);
      blocklayer::IoRequest w;
      w.op = blocklayer::IoOp::kWrite;
      w.lba = f->id;
      w.nblocks = 1;
      w.tokens = {token};
      w.on_complete = [](const blocklayer::IoResult&) {};
      device_->Submit(std::move(w));
    }
    counters_.Increment("evictions");
    Drop(s);
    return true;
  }
  return false;
}

void BufferPool::Drop(std::uint32_t s) {
  Frame& f = slots_[s].frame;
  Unlink(s);
  order_.erase(f.id);
  slot_of_[f.id] = kNil;
  f.id = kInvalidPageId;
  f.pins = 0;
  f.dirty = false;
  free_slots_.push_back(s);
}

void BufferPool::LoadFrame(PageId id, std::uint32_t s) {
  blocklayer::IoRequest r;
  r.op = blocklayer::IoOp::kRead;
  r.lba = id;
  r.nblocks = 1;
  const std::uint64_t epoch = epoch_;
  r.on_complete = [this, s, epoch](const blocklayer::IoResult& res) {
    if (epoch != epoch_) return;
    OnLoaded(s, res);
  };
  device_->Submit(std::move(r));
}

void BufferPool::OnLoaded(std::uint32_t s, const blocklayer::IoResult& res) {
  Slot& slot = slots_[s];
  Frame& frame = slot.frame;
  std::vector<PinCallback> waiters = std::move(running_waiters_);
  waiters.swap(slot.waiters);
  slot.loading = false;
  if (!res.status.ok()) {
    slot_of_[frame.id] = kNil;
    frame.id = kInvalidPageId;
    free_slots_.push_back(s);
    for (auto& w : waiters) w(res.status);
  } else {
    const std::vector<std::uint8_t>* image =
        images_->Fetch(res.tokens.empty() ? 0 : res.tokens[0]);
    if (image != nullptr) {
      frame.bytes.assign(image->begin(), image->end());
    } else {
      frame.bytes.assign(kPageBytes, 0);
    }
    frame.pins = static_cast<int>(waiters.size());
    frame.dirty = false;
    order_.emplace(frame.id, s);
    Touch(s);
    for (auto& w : waiters) w(&frame);
  }
  waiters.clear();
  running_waiters_ = std::move(waiters);
}

void BufferPool::Unpin(PageId id, bool dirty) {
  Frame* f = Resident(id);
  if (f == nullptr) return;
  if (f->pins > 0) --f->pins;
  if (dirty) f->dirty = true;
}

void BufferPool::FlushPage(PageId id, StatusCb cb) {
  FlushOp* op = flushes_.Acquire();
  op->id = id;
  op->cb = std::move(cb);
  const std::uint64_t epoch = epoch_;
  Frame* f = Resident(id);
  if (f == nullptr || !f->dirty) {
    sim_->Schedule(0, [this, op, epoch]() {
      if (epoch != epoch_) return;
      StatusCb done = std::move(op->cb);
      flushes_.Release(op);
      done(Status::Ok());
    });
    return;
  }
  const std::uint64_t token = images_->Register(f->bytes);
  counters_.Increment("writebacks");
  blocklayer::IoRequest w;
  w.op = blocklayer::IoOp::kWrite;
  w.lba = id;
  w.nblocks = 1;
  w.tokens = {token};
  auto written = [this, op, epoch](const blocklayer::IoResult& res) {
    if (epoch != epoch_) return;
    if (res.status.ok()) {
      if (Frame* frame = Resident(op->id)) frame->dirty = false;
    }
    StatusCb done = std::move(op->cb);
    flushes_.Release(op);
    done(res.status);
  };
  static_assert(blocklayer::IoCallback::fits<decltype(written)>());
  w.on_complete = std::move(written);
  device_->Submit(std::move(w));
}

void BufferPool::FlushAll(StatusCb cb) {
  flush_ids_.clear();
  for (const auto& [id, s] : order_) {
    if (slots_[s].frame.dirty) flush_ids_.push_back(id);
  }
  FlushAllOp* op = flush_alls_.Acquire();
  op->remaining = flush_ids_.size();
  op->first_error = Status::Ok();
  op->cb = std::move(cb);
  if (flush_ids_.empty()) {
    FlushBarrier(op, Status::Ok());
    return;
  }
  const std::uint64_t epoch = epoch_;
  for (PageId id : flush_ids_) {
    FlushPage(id, [this, op, epoch](Status st) {
      if (epoch != epoch_) return;
      if (!st.ok() && op->first_error.ok()) op->first_error = st;
      if (--op->remaining == 0) FlushBarrier(op, op->first_error);
    });
  }
}

void BufferPool::FlushBarrier(FlushAllOp* op, const Status& st) {
  if (!st.ok()) {
    FinishFlushAll(op, st);
    return;
  }
  blocklayer::IoRequest f;
  f.op = blocklayer::IoOp::kFlush;
  f.nblocks = 1;
  const std::uint64_t epoch = epoch_;
  f.on_complete = [this, op, epoch](const blocklayer::IoResult& r) {
    if (epoch != epoch_) return;
    FinishFlushAll(op, r.status);
  };
  device_->Submit(std::move(f));
}

void BufferPool::FinishFlushAll(FlushAllOp* op, const Status& st) {
  StatusCb done = std::move(op->cb);
  const Status result = st;
  flush_alls_.Release(op);
  done(result);
}

void BufferPool::DirtyFrames(std::vector<Frame*>* out) {
  out->clear();
  for (const auto& [id, s] : order_) {
    if (slots_[s].frame.dirty) out->push_back(&slots_[s].frame);
  }
}

void BufferPool::PowerCycle() {
  ++epoch_;
  order_.clear();
  std::fill(slot_of_.begin(), slot_of_.end(), kNil);
  free_slots_.clear();
  for (std::size_t s = slots_.size(); s-- > 0;) {
    Slot& slot = slots_[s];
    slot.frame.id = kInvalidPageId;
    slot.frame.pins = 0;
    slot.frame.dirty = false;
    slot.loading = false;
    slot.prev = slot.next = kNil;
    slot.waiters.clear();
    free_slots_.push_back(static_cast<std::uint32_t>(s));
  }
  lru_head_ = lru_tail_ = kNil;
  flushes_.ReleaseAll();
  flush_alls_.ReleaseAll();
  counters_.Increment("power_cycles");
}

void BufferPool::InvalidateClean() {
  for (auto it = order_.begin(); it != order_.end();) {
    const std::uint32_t s = it->second;
    const Frame& f = slots_[s].frame;
    ++it;  // Drop erases the current entry
    if (!f.dirty && f.pins == 0) Drop(s);
  }
}

}  // namespace postblock::db
