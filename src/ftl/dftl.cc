#include "ftl/dftl.h"

#include <utility>

namespace postblock::ftl {

Dftl::Dftl(ssd::Controller* controller)
    : controller_(controller),
      user_pages_(controller->config().UserPages()),
      entries_per_tp_(controller->config().dftl_entries_per_tp),
      cmt_capacity_(controller->config().dftl_cmt_pages) {
  tp_count_ = (user_pages_ + entries_per_tp_ - 1) / entries_per_tp_;
  // Shrink the user space so user data + translation pages still fit
  // behind the same over-provisioning.
  user_pages_ = user_pages_ > tp_count_ ? user_pages_ - tp_count_ : 0;
  tp_count_ = (user_pages_ + entries_per_tp_ - 1) / entries_per_tp_;
  base_ = std::make_unique<PageFtl>(controller,
                                    user_pages_ + tp_count_);
  tp_persisted_.assign(tp_count_, false);
}

double Dftl::WriteAmplification() const {
  const std::uint64_t host = counters_.Get("host_pages_accepted");
  if (host == 0) return 0.0;
  return static_cast<double>(
             controller_->counters().Get("pages_programmed")) /
         static_cast<double>(host);
}

void Dftl::RegisterMetrics(metrics::MetricRegistry* m) {
  // Replaces the default wholesale: host-facing counters live here, but
  // GC runs against the internal PageFtl that carries both data and map
  // traffic — reading them from this->counters() would report zeros.
  static constexpr const char* kHost[] = {"host_reads", "host_writes",
                                          "trims"};
  for (const char* name : kHost) {
    m->AddPolledCounter(std::string("ftl.") + name,
                        [this, name] { return counters_.Get(name); });
  }
  static constexpr const char* kInner[] = {"gc_runs", "gc_erases",
                                           "gc_page_moves", "write_stalls"};
  for (const char* name : kInner) {
    m->AddPolledCounter(std::string("ftl.") + name, [this, name] {
      return base_->counters().Get(name);
    });
  }
  m->AddGauge("ftl.write_amplification",
              [this] { return WriteAmplification(); });
  static constexpr const char* kCmt[] = {"cmt_hits", "cmt_misses",
                                         "map_reads", "map_writes"};
  for (const char* name : kCmt) {
    m->AddPolledCounter(std::string("dftl.") + name,
                        [this, name] { return counters_.Get(name); });
  }
  m->AddGauge("dftl.cmt_pages",
              [this] { return static_cast<double>(cmt_.size()); });
}

void Dftl::FinishFetch(std::uint64_t tp) {
  auto it = fetch_waiters_.find(tp);
  if (it == fetch_waiters_.end()) return;
  FetchState state = std::move(it->second);
  fetch_waiters_.erase(it);
  auto cit = cmt_.find(tp);
  if (cit != cmt_.end() && state.dirty) cit->second.dirty = true;
  for (auto& w : state.waiters) w();
}

void Dftl::EnsureCached(std::uint64_t tp, bool make_dirty,
                        sim::InplaceCallback then) {
  auto hit = cmt_.find(tp);
  if (hit != cmt_.end()) {
    counters_.Increment("cmt_hits");
    lru_.erase(hit->second.lru_pos);
    lru_.push_front(tp);
    hit->second.lru_pos = lru_.begin();
    if (make_dirty) hit->second.dirty = true;
    then();
    return;
  }
  counters_.Increment("cmt_misses");

  // Coalesce concurrent misses on the same translation page.
  auto [wit, first_miss] = fetch_waiters_.try_emplace(tp);
  wit->second.waiters.push_back(std::move(then));
  if (make_dirty) wit->second.dirty = true;
  if (!first_miss) return;

  auto insert_and_drain = [this, tp, make_dirty]() {
    lru_.push_front(tp);
    cmt_[tp] = CmtEntry{lru_.begin(), make_dirty};
    FinishFetch(tp);
  };

  auto fetch = [this, tp, insert_and_drain]() {
    if (!tp_persisted_[tp]) {
      // Compulsory miss on a never-written directory entry: the GTD
      // knows it is empty; no flash read needed.
      insert_and_drain();
      return;
    }
    counters_.Increment("map_reads");
    base_->Read(MapLba(tp),
                [this, insert_and_drain](StatusOr<std::uint64_t> res) {
                  // Content is authoritative in the resident directory;
                  // the read existed for its timing + channel traffic.
                  // An uncorrectable translation page is survivable for
                  // the same reason — but it must be visible in the
                  // counters, not silently absorbed.
                  if (!res.ok()) counters_.Increment("map_read_failures");
                  insert_and_drain();
                });
  };

  if (cmt_.size() < cmt_capacity_) {
    fetch();
    return;
  }
  // Evict the LRU entry; dirty entries are written back to flash.
  const std::uint64_t victim = lru_.back();
  lru_.pop_back();
  auto vit = cmt_.find(victim);
  const bool dirty = vit->second.dirty;
  cmt_.erase(vit);
  if (!dirty) {
    counters_.Increment("cmt_evictions_clean");
    fetch();
    return;
  }
  counters_.Increment("cmt_evictions_dirty");
  counters_.Increment("map_writes");
  tp_persisted_[victim] = true;
  base_->Write(MapLba(victim), /*token=*/victim, [this, fetch](Status st) {
    if (!st.ok()) counters_.Increment("map_write_failures");
    fetch();
  });
}

void Dftl::Write(Lba lba, std::uint64_t token, WriteCallback cb,
                 trace::Ctx ctx) {
  if (lba >= user_pages_) {
    controller_->sim()->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::OutOfRange("write beyond device"));
    });
    return;
  }
  counters_.Increment("host_writes");
  counters_.Increment("host_pages_accepted");
  // The data write carries the host span; translation-page traffic
  // (fetch/writeback inside EnsureCached) stays untagged — it is map
  // overhead, not attributable to one host IO.
  EnsureCached(TpOf(lba), /*make_dirty=*/true,
               [this, lba, token, ctx, cb = std::move(cb)]() mutable {
                 base_->Write(lba, token, std::move(cb), ctx);
               });
}

void Dftl::Read(Lba lba, ReadCallback cb, trace::Ctx ctx) {
  if (lba >= user_pages_) {
    controller_->sim()->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::OutOfRange("read beyond device"));
    });
    return;
  }
  counters_.Increment("host_reads");
  EnsureCached(TpOf(lba), /*make_dirty=*/false,
               [this, lba, ctx, cb = std::move(cb)]() mutable {
                 base_->Read(lba, std::move(cb), ctx);
               });
}

void Dftl::Trim(Lba lba, WriteCallback cb, trace::Ctx ctx) {
  if (lba >= user_pages_) {
    controller_->sim()->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::OutOfRange("trim beyond device"));
    });
    return;
  }
  counters_.Increment("trims");
  EnsureCached(TpOf(lba), /*make_dirty=*/true,
               [this, lba, ctx, cb = std::move(cb)]() mutable {
                 base_->Trim(lba, std::move(cb), ctx);
               });
}

}  // namespace postblock::ftl
