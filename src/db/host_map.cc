#include "db/host_map.h"

#include <algorithm>
#include <utility>

namespace postblock::db {

HostMap::HostMap(sim::Simulator* sim, host::HostInterface* dev,
                 std::uint64_t num_pages, std::uint32_t page_bytes)
    : sim_(sim), dev_(dev), num_pages_(num_pages),
      page_bytes_(page_bytes), name_of_(num_pages, kNoName) {
  // The peer channel: the device tells us about every page it moves,
  // before the old name can go stale under a future read.
  dev_->SetMigrationHandler(
      [this](std::uint64_t old_name, std::uint64_t new_name) {
        OnMigration(old_name, new_name);
      });
}

void HostMap::Submit(blocklayer::IoRequest request) {
  counters_.Increment("requests");
  const std::uint64_t gen = generation_;
  if (request.op == blocklayer::IoOp::kFlush) {
    Request* r = requests_.Acquire();
    r->remaining = 1;
    r->cb = std::move(request.on_complete);
    host::Command f = host::Command::Flush(
        [this, r, gen](const blocklayer::IoResult& res) {
          if (gen != generation_) return;
          OnPageDone(r, 0, res.status, 0);
        });
    f.span = request.span;
    dev_->Execute(std::move(f));
    return;
  }
  if (request.nblocks == 0) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(blocklayer::IoResult{Status::Ok(), {}});
    });
    return;
  }
  if (request.lba + request.nblocks > num_pages_) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(blocklayer::IoResult{
          Status::OutOfRange("request beyond host map"), {}});
    });
    return;
  }
  if (request.op == blocklayer::IoOp::kWrite &&
      request.tokens.size() != request.nblocks) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(blocklayer::IoResult{
          Status::InvalidArgument("write token count != nblocks"), {}});
    });
    return;
  }

  Request* r = requests_.Acquire();
  r->remaining = request.nblocks;
  r->result.tokens.assign(
      request.op == blocklayer::IoOp::kRead ? request.nblocks : 0, 0);
  r->cb = std::move(request.on_complete);
  switch (request.op) {
    case blocklayer::IoOp::kRead:
      for (std::uint32_t i = 0; i < request.nblocks; ++i) {
        ReadPage(r, i, request.lba + i, 0);
      }
      return;
    case blocklayer::IoOp::kWrite:
      for (std::uint32_t i = 0; i < request.nblocks; ++i) {
        WritePage(r, i, request.lba + i, request.tokens[i]);
      }
      return;
    case blocklayer::IoOp::kTrim:
      // Drop the mapping now; the name dies at the next FreeRetired so
      // a crash between trim and checkpoint commit can still recover
      // the old copy.
      for (std::uint32_t i = 0; i < request.nblocks; ++i) {
        const PageId page = request.lba + i;
        if (name_of_[page] != kNoName) {
          counters_.Increment("trims");
          Retire(page);
          --live_;
        }
        sim_->Schedule(0, [this, r, i, gen]() {
          if (gen != generation_) return;
          OnPageDone(r, i, Status::Ok(), 0);
        });
      }
      return;
    default:
      sim_->Schedule(0, [this, r, gen]() {
        if (gen != generation_) return;
        OnPageDone(r, 0, Status::InvalidArgument("unsupported op"), 0);
      });
      return;
  }
}

void HostMap::ReadPage(Request* r, std::uint32_t index, PageId page,
                       std::uint32_t tries) {
  const std::uint64_t gen = generation_;
  const std::uint64_t name = name_of_[page];
  if (name == kNoName) {
    // Never written (or trimmed): reads as zeroes, like an unmapped LBA.
    counters_.Increment("zero_reads");
    sim_->Schedule(0, [this, r, index, gen]() {
      if (gen != generation_) return;
      OnPageDone(r, index, Status::Ok(), 0);
    });
    return;
  }
  counters_.Increment("reads");
  auto done = [this, r, index, page, tries,
               gen](const blocklayer::IoResult& res) {
    if (gen != generation_) return;
    if (res.status.ok()) {
      OnPageDone(r, index, Status::Ok(),
                 res.tokens.empty() ? 0 : res.tokens[0]);
      return;
    }
    if (res.status.IsNotFound() && tries < 3) {
      // The device migrated the page between our lookup and its read —
      // its callback already updated the map. Re-resolve.
      counters_.Increment("read_retries");
      ReadPage(r, index, page, tries + 1);
      return;
    }
    OnPageDone(r, index, res.status, 0);
  };
  static_assert(blocklayer::IoCallback::fits<decltype(done)>());
  dev_->Execute(host::Command::NamelessRead(name, std::move(done)));
}

void HostMap::WritePage(Request* r, std::uint32_t index, PageId page,
                        std::uint64_t token) {
  counters_.Increment("writes");
  const std::uint64_t gen = generation_;
  auto done = [this, r, index, page, gen](const blocklayer::IoResult& res) {
    if (gen != generation_) return;
    if (!res.status.ok()) {
      OnPageDone(r, index, res.status, 0);
      return;
    }
    if (res.tokens.empty()) {
      OnPageDone(r, index, Status::Internal("nameless write returned no name"),
                 0);
      return;
    }
    const std::uint64_t name = res.tokens[0];
    if (name_of_[page] != kNoName) {
      Retire(page);
    } else {
      ++live_;
    }
    name_of_[page] = name;
    Index(name, page);
    OnPageDone(r, index, Status::Ok(), 0);
  };
  static_assert(blocklayer::IoCallback::fits<decltype(done)>());
  dev_->Execute(host::Command::NamelessWriteTagged(
      token, page, static_cast<std::uint32_t>(epoch_), std::move(done)));
}

void HostMap::OnPageDone(Request* r, std::uint32_t index, const Status& st,
                         std::uint64_t token) {
  if (!st.ok() && r->result.status.ok()) r->result.status = st;
  if (index < r->result.tokens.size()) r->result.tokens[index] = token;
  if (--r->remaining > 0) return;
  // The record is recycled after the callback (which may submit again
  // and must not find its own result reused); a crash inside the
  // callback has reclaimed it already.
  const std::uint64_t gen = generation_;
  if (r->cb) r->cb(r->result);
  if (gen != generation_) return;
  r->cb = nullptr;
  r->result.status = Status::Ok();
  r->result.tokens.clear();
  requests_.Recycle(r);
}

void HostMap::FreeRetired(StatusCb cb) {
  FreeBatch* fb = frees_.Acquire();
  fb->remaining = retired_.size();
  fb->first_error = Status::Ok();
  fb->cb = std::move(cb);
  const std::uint64_t gen = generation_;
  if (retired_.empty()) {
    sim_->Schedule(0, [this, fb, gen]() {
      if (gen != generation_) return;
      FinishFree(fb);
    });
    return;
  }
  fb->names.swap(retired_);
  for (const std::uint64_t name : fb->names) {
    if (NameEntry* e = Find(name)) e->name = kNoName;
  }
  counters_.Add("retired_freed", fb->names.size());
  for (const std::uint64_t name : fb->names) {
    auto freed = [this, fb, gen](const blocklayer::IoResult& res) {
      if (gen != generation_) return;
      // NotFound = already gone (crash reclaim); not an error.
      if (!res.status.ok() && !res.status.IsNotFound() &&
          fb->first_error.ok()) {
        fb->first_error = res.status;
      }
      if (!res.status.ok() && res.status.IsNotFound()) {
        counters_.Increment("free_stale");
      }
      if (--fb->remaining == 0) FinishFree(fb);
    };
    static_assert(blocklayer::IoCallback::fits<decltype(freed)>());
    dev_->Execute(host::Command::NamelessFree(name, std::move(freed)));
  }
}

void HostMap::FinishFree(FreeBatch* fb) {
  StatusCb cb = std::move(fb->cb);
  const Status st = fb->first_error;
  fb->names.clear();
  frees_.Recycle(fb);
  cb(st);
}

void HostMap::OnMigration(std::uint64_t old_name, std::uint64_t new_name) {
  NameEntry* e = Find(old_name);
  if (e == nullptr) {
    counters_.Increment("stale_migrations");
    return;
  }
  const std::uint64_t holder = e->holder;
  e->name = kNoName;
  Index(new_name, holder);
  if ((holder & kRetired) != 0) {
    // A retired (not-yet-freed) copy can be migrated too; track it so
    // the eventual free hits the right name instead of leaking the page.
    retired_[holder & ~kRetired] = new_name;
    counters_.Increment("retired_migrations");
    return;
  }
  name_of_[holder] = new_name;
  counters_.Increment("migrations");
}

void HostMap::Index(std::uint64_t name, std::uint64_t holder) {
  const std::uint64_t slot = host::NameSlot(name);
  if (slot >= by_slot_.size()) {
    by_slot_.resize(std::max<std::uint64_t>(slot + 1, by_slot_.size() * 2));
  }
  by_slot_[slot] = NameEntry{name, holder};
}

HostMap::NameEntry* HostMap::Find(std::uint64_t name) {
  const std::uint64_t slot = host::NameSlot(name);
  if (slot >= by_slot_.size() || by_slot_[slot].name != name) return nullptr;
  return &by_slot_[slot];
}

void HostMap::Retire(PageId page) {
  const std::uint64_t name = name_of_[page];
  Index(name, kRetired | retired_.size());
  retired_.push_back(name);
  name_of_[page] = kNoName;
}

void HostMap::Crash() {
  counters_.Increment("crashes");
  ++generation_;
  std::fill(name_of_.begin(), name_of_.end(), kNoName);
  std::fill(by_slot_.begin(), by_slot_.end(), NameEntry{});
  live_ = 0;
  retired_.clear();
  requests_.ReleaseAll();
  frees_.ReleaseAll();
}

void HostMap::Adopt(PageId page, std::uint64_t name) {
  if (page >= name_of_.size()) name_of_.resize(page + 1, kNoName);
  if (name_of_[page] == kNoName) {
    ++live_;
  } else if (NameEntry* e = Find(name_of_[page])) {
    e->name = kNoName;
  }
  name_of_[page] = name;
  Index(name, page);
}

bool HostMap::Lookup(PageId page, std::uint64_t* name) const {
  if (page >= name_of_.size() || name_of_[page] == kNoName) return false;
  if (name != nullptr) *name = name_of_[page];
  return true;
}

}  // namespace postblock::db
