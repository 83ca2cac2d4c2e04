#include "ftl/append_ftl.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "flash/page_store.h"
#include "host/command.h"

namespace postblock::ftl {

namespace {
// Names are (generation, flat PPA): the low host::kNameSlotBits bits
// address any page of any geometry this repo simulates; the high bits
// carry the block's erase count at program time. A recycled block bumps
// its erase count, so every name issued before the erase goes stale
// *by construction* — a dangling host name can never alias new data,
// only read NotFound.
constexpr std::uint64_t kPpaBits = host::kNameSlotBits;
constexpr std::uint64_t kPpaMask = (1ull << kPpaBits) - 1;

constexpr trace::Ctx kMigrateCtx{0, 0, trace::Origin::kGc};
}  // namespace

AppendFtl::AppendFtl(ssd::Controller* controller)
    : controller_(controller),
      regions_(controller->config().append_regions + 1),
      free_(controller->config().geometry.luns()),
      live_count_(controller->config().geometry.total_blocks(), 0),
      in_flight_(controller->config().geometry.total_blocks(), 0),
      is_free_(controller->config().geometry.total_blocks(), true),
      is_active_(controller->config().geometry.total_blocks(), false) {
  const auto& g = geom();
  for (std::uint32_t l = 0; l < g.luns(); ++l) {
    const std::uint32_t channel = l / g.luns_per_channel;
    const std::uint32_t lun = l % g.luns_per_channel;
    for (std::uint32_t plane = 0; plane < g.planes_per_lun; ++plane) {
      for (std::uint32_t block = 0; block < g.blocks_per_plane; ++block) {
        free_[l].push_back({channel, lun, plane, block});
      }
    }
  }
  controller_->SetRefreshListener(
      [this](const flash::BlockAddr& block) { OnRefreshRequest(block); });
}

std::uint64_t AppendFtl::user_pages() const {
  return controller_->config().UserPages();
}

double AppendFtl::WriteAmplification() const {
  const std::uint64_t host = counters_.Get("host_pages_accepted");
  if (host == 0) return 0.0;
  const std::uint64_t programmed =
      controller_->counters().Get("pages_programmed");
  return static_cast<double>(programmed) / static_cast<double>(host);
}

std::uint64_t AppendFtl::MappingTableBytes() const {
  // The whole translation state: one live/in-flight counter pair per
  // block plus an append point per region. No per-page anything.
  return live_count_.size() * 4 + regions_.size() * 16;
}

void AppendFtl::RegisterMetrics(metrics::MetricRegistry* m) {
  Ftl::RegisterMetrics(m);
  m->AddPolledCounter("ftl.migrate_page_moves", [this] {
    return counters_.Get("migrate_page_moves");
  });
  m->AddPolledCounter("ftl.reclaim_erases", [this] {
    return counters_.Get("reclaim_erases");
  });
  m->AddGauge("ftl.free_blocks",
              [this] { return static_cast<double>(FreeBlocksTotal()); });
  m->AddGauge("ftl.live_pages",
              [this] { return static_cast<double>(live_pages_); });
  m->AddGauge("ftl.mapping_table_bytes", [this] {
    return static_cast<double>(MappingTableBytes());
  });
}

std::size_t AppendFtl::FreeBlocksTotal() const {
  std::size_t total = 0;
  for (const auto& f : free_) total += f.size();
  return total;
}

// ---------------------------------------------------------------------
// The block vocabulary: refused, typed.
// ---------------------------------------------------------------------

void AppendFtl::Write(Lba, std::uint64_t, WriteCallback cb, trace::Ctx) {
  counters_.Increment("lba_commands_refused");
  PostGuarded(std::move(cb),
              Status::Unimplemented(
                  "vision-append device has no logical address space"));
}

void AppendFtl::Read(Lba, ReadCallback cb, trace::Ctx) {
  counters_.Increment("lba_commands_refused");
  PostGuarded(std::move(cb),
              StatusOr<std::uint64_t>(Status::Unimplemented(
                  "vision-append device has no logical address space")));
}

void AppendFtl::Trim(Lba, WriteCallback cb, trace::Ctx) {
  counters_.Increment("lba_commands_refused");
  PostGuarded(std::move(cb),
              Status::Unimplemented(
                  "vision-append device has no logical address space"));
}

// ---------------------------------------------------------------------
// Append path
// ---------------------------------------------------------------------

bool AppendFtl::EnsureActive(std::uint32_t region, bool for_migration) {
  Region& r = regions_[region];
  if (r.has_active && r.next_page < geom().pages_per_block) return true;
  if (r.has_active) {
    // Active block filled up: release it (it may already be fully dead
    // if the host freed faster than it wrote).
    const std::uint64_t flat = FlatBlock(r.active);
    is_active_[flat] = false;
    r.has_active = false;
    EraseIfDead(r.active);
  }
  // The last free block is the migration reserve: handing it to a host
  // stream would leave the compactor with no destination, deadlocked
  // against the very writes queued behind it.
  if (!for_migration && FreeBlocksTotal() <= 1) return false;
  const std::uint32_t luns = static_cast<std::uint32_t>(free_.size());
  for (std::uint32_t i = 0; i < luns; ++i) {
    const std::uint32_t l = (next_lun_ + i) % luns;
    if (free_[l].empty()) continue;
    next_lun_ = (l + 1) % luns;
    r.active = free_[l].back();
    free_[l].pop_back();
    r.next_page = 0;
    r.has_active = true;
    const std::uint64_t flat = FlatBlock(r.active);
    is_free_[flat] = false;
    is_active_[flat] = true;
    MaybeStartMigration();
    return true;
  }
  return false;
}

void AppendFtl::NamelessWrite(std::uint64_t token, std::uint64_t owner,
                              std::uint64_t owner_epoch,
                              std::uint8_t stream, NameCallback cb,
                              trace::Ctx ctx) {
  if (controller_->read_only()) {
    counters_.Increment("writes_rejected_read_only");
    PostGuarded(std::move(cb),
                StatusOr<std::uint64_t>(Status::ResourceExhausted(
                    "device is read-only: bad-block spares exhausted")));
    return;
  }
  counters_.Increment("host_writes");
  PendingAppend* a = appends_.Acquire();
  a->token = token;
  a->owner = owner;
  a->owner_epoch = owner_epoch;
  a->region = stream % static_cast<std::uint32_t>(regions_.size() - 1);
  a->cb = std::move(cb);
  a->ctx = ctx;
  if (!queue_.empty() || !EnsureActive(a->region)) {
    // Out of clean blocks (or behind writes that are): wait while
    // reclaim/migration can still free space, else tell the host the
    // truth — *it* owns liveness, so only it can make room.
    queue_.push_back(a);
    MaybeStartMigration();
    FailQueueIfStuck();
    return;
  }
  IssueAppend(a);
}

void AppendFtl::IssueAppend(PendingAppend* a) {
  Region& r = regions_[a->region];
  a->ppa = flash::Ppa{r.active.channel, r.active.lun, r.active.plane,
                      r.active.block, r.next_page++};
  a->flat = FlatBlock(r.active);
  ++in_flight_[a->flat];
  counters_.Increment("host_pages_accepted");
  flash::PageData data;
  data.lba = a->owner;
  data.seq = next_seq_++;
  data.token = a->token;
  data.group = a->owner_epoch;
  const std::uint64_t epoch = epoch_;
  auto done = [this, a, epoch](Status st) {
    if (epoch != epoch_) return;
    OnAppendDone(a, std::move(st));
  };
  static_assert(ssd::Controller::OpCallback::fits<decltype(done)>());
  controller_->ProgramPage(a->ppa, data, std::move(done), a->ctx);
}

void AppendFtl::OnAppendDone(PendingAppend* a, Status st) {
  const flash::Ppa ppa = a->ppa;
  const std::uint64_t flat = a->flat;
  NameCallback cb = std::move(a->cb);
  appends_.Release(a);
  --in_flight_[flat];
  if (!st.ok()) {
    counters_.Increment("append_failures");
    EraseIfDead(ppa.Block());
    cb(std::move(st));
    return;
  }
  ++live_count_[flat];
  ++live_pages_;
  const std::uint64_t gen =
      controller_->flash()->GetBlockInfo(ppa.Block()).erase_count;
  cb((gen << kPpaBits) | ppa.Flatten(geom()));
}

void AppendFtl::FailQueueIfStuck() {
  if (migrating_ || pending_reclaims_ > 0) return;
  while (!queue_.empty()) {
    counters_.Increment("writes_rejected_full");
    PendingAppend* a = queue_.front();
    queue_.pop_front();
    PostGuarded(std::move(a->cb),
                StatusOr<std::uint64_t>(Status::ResourceExhausted(
                    "no free blocks: host must free named pages")));
    appends_.Release(a);
  }
}

void AppendFtl::PumpQueue() {
  while (!queue_.empty()) {
    if (!EnsureActive(queue_.front()->region)) {
      MaybeStartMigration();
      FailQueueIfStuck();
      return;
    }
    PendingAppend* a = queue_.front();
    queue_.pop_front();
    IssueAppend(a);
  }
}

// ---------------------------------------------------------------------
// Named reads and frees
// ---------------------------------------------------------------------

void AppendFtl::NamelessRead(std::uint64_t name, ReadCallback cb,
                             trace::Ctx ctx) {
  counters_.Increment("host_reads");
  const std::uint64_t flat = name & kPpaMask;
  if (flat >= geom().total_pages()) {
    PostGuarded(std::move(cb), StatusOr<std::uint64_t>(
                                   Status::NotFound("unknown name")));
    return;
  }
  const flash::Ppa ppa = flash::Ppa::FromFlat(geom(), flat);
  const std::uint64_t gen = name >> kPpaBits;
  if (controller_->flash()->GetBlockInfo(ppa.Block()).erase_count != gen ||
      controller_->flash()->GetPageState(ppa) !=
          flash::PageState::kValid) {
    counters_.Increment("stale_name_reads");
    PostGuarded(std::move(cb),
                StatusOr<std::uint64_t>(Status::NotFound(
                    "stale name: page freed or migrated")));
    return;
  }
  ReadCallback* slot = reads_.Acquire();
  *slot = std::move(cb);
  const std::uint64_t epoch = epoch_;
  auto done = [this, slot, epoch](StatusOr<flash::PageData> res) {
    if (epoch != epoch_) return;
    ReadCallback read_cb = std::move(*slot);
    reads_.Release(slot);
    if (!res.ok()) {
      read_cb(res.status());
      return;
    }
    read_cb(res->token);
  };
  static_assert(ssd::Controller::ReadCallback::fits<decltype(done)>());
  controller_->ReadPage(ppa, std::move(done), ctx);
}

void AppendFtl::NamelessFree(std::uint64_t name, WriteCallback cb,
                             trace::Ctx ctx) {
  (void)ctx;
  const std::uint64_t flat = name & kPpaMask;
  const std::uint64_t gen = name >> kPpaBits;
  if (flat >= geom().total_pages()) {
    PostGuarded(std::move(cb), Status::NotFound("unknown name"));
    return;
  }
  const flash::Ppa ppa = flash::Ppa::FromFlat(geom(), flat);
  if (controller_->flash()->GetBlockInfo(ppa.Block()).erase_count != gen ||
      controller_->flash()->GetPageState(ppa) !=
          flash::PageState::kValid) {
    PostGuarded(std::move(cb),
                Status::NotFound("stale name: page freed or migrated"));
    return;
  }
  counters_.Increment("host_frees");
  (void)controller_->flash()->MarkInvalid(ppa);
  const std::uint64_t flat_block = FlatBlock(ppa.Block());
  assert(live_count_[flat_block] > 0 && "live count would wrap");
  --live_count_[flat_block];
  --live_pages_;
  EraseIfDead(ppa.Block());
  // Completes like PostGuarded, with the callback parked in a pooled
  // slot so the event captures only {this, slot, epoch}.
  WriteCallback* slot = frees_.Acquire();
  *slot = std::move(cb);
  const std::uint64_t epoch = epoch_;
  auto freed = [this, slot, epoch]() {
    if (epoch != epoch_) return;
    WriteCallback free_cb = std::move(*slot);
    frees_.Release(slot);
    free_cb(Status::Ok());
  };
  static_assert(sim::InplaceCallback::fits<decltype(freed)>());
  controller_->sim()->Schedule(0, std::move(freed));
}

void AppendFtl::EraseIfDead(const flash::BlockAddr& block) {
  const std::uint64_t flat = FlatBlock(block);
  if (is_free_[flat] || !BlockQuiet(flat) || live_count_[flat] != 0) {
    return;
  }
  const flash::BlockInfo& bi = controller_->flash()->GetBlockInfo(block);
  if (bi.bad || bi.write_point == 0) return;
  // Host freed the block's last live page: plain reclaim, no data
  // moves — the WA-1.0 path.
  counters_.Increment("reclaim_erases");
  ++in_flight_[flat];  // guards against double-erase / reuse
  ++pending_reclaims_;
  const std::uint64_t epoch = epoch_;
  auto erased = [this, epoch, block, flat](Status st) {
    if (epoch != epoch_) return;
    --in_flight_[flat];
    --pending_reclaims_;
    if (st.ok()) {  // erase failure = block retired below us
      is_free_[flat] = true;
      free_[block.GlobalLun(geom())].push_back(block);
      PumpQueue();
    }
    FailQueueIfStuck();
  };
  static_assert(ssd::Controller::OpCallback::fits<decltype(erased)>());
  controller_->EraseBlock(block, std::move(erased), kMigrateCtx);
}

// ---------------------------------------------------------------------
// Cooperative migration (and refresh): relocate-and-tell, never hide.
// ---------------------------------------------------------------------

void AppendFtl::OnRefreshRequest(const flash::BlockAddr& block) {
  counters_.Increment("refresh_requests");
  refresh_queue_.push_back(block);
  MaybeStartMigration();
}

void AppendFtl::MaybeStartMigration() {
  if (migrating_) return;
  while (!refresh_queue_.empty()) {
    const flash::BlockAddr block = refresh_queue_.front();
    refresh_queue_.pop_front();
    const std::uint64_t flat = FlatBlock(block);
    if (is_free_[flat] || !BlockQuiet(flat)) continue;
    migrating_ = true;
    counters_.Increment("refresh_runs");
    CollectVictim(block);
    return;
  }
  const double watermark = controller_->config().append_migrate_watermark;
  const std::uint64_t total = geom().total_blocks();
  if (static_cast<double>(FreeBlocksTotal()) >=
      watermark * static_cast<double>(total)) {
    return;
  }
  // Deadest quiet block wins; ties break on the lower flat index so the
  // schedule is worker-count- and hash-order-independent.
  bool found = false;
  std::uint64_t victim_flat = 0;
  std::uint32_t victim_live = 0;
  for (std::uint64_t flat = 0; flat < total; ++flat) {
    if (is_free_[flat] || !BlockQuiet(flat)) continue;
    const flash::BlockAddr addr = flash::BlockAddr::FromFlat(geom(), flat);
    const flash::BlockInfo& bi = controller_->flash()->GetBlockInfo(addr);
    if (bi.bad || bi.write_point == 0) continue;
    if (live_count_[flat] == bi.write_point) continue;  // nothing dead
    if (!found || live_count_[flat] < victim_live) {
      found = true;
      victim_flat = flat;
      victim_live = live_count_[flat];
    }
  }
  if (!found) return;
  migrating_ = true;
  counters_.Increment("migrate_runs");
  CollectVictim(flash::BlockAddr::FromFlat(geom(), victim_flat));
}

void AppendFtl::CollectVictim(flash::BlockAddr victim) {
  // Pin the victim for the whole collection: a host free that kills its
  // last live page mid-migration must not let EraseIfDead recycle it
  // under us (double-erase, then two owners of one block).
  ++in_flight_[FlatBlock(victim)];
  RelocateNext(victim, 0);
}

void AppendFtl::RelocateNext(flash::BlockAddr victim, std::uint32_t page) {
  const auto& g = geom();
  while (page < g.pages_per_block &&
         controller_->flash()->GetPageState(
             {victim.channel, victim.lun, victim.plane, victim.block,
              page}) != flash::PageState::kValid) {
    ++page;
  }
  if (page >= g.pages_per_block) {
    FinishVictim(victim);
    return;
  }
  if (!EnsureActive(MigrationRegion(), /*for_migration=*/true)) {
    // No destination blocks at all: abandon the collection; the block
    // stays intact (we never erase live data).
    mig_.victim = victim;
    AbortMigration();
    return;
  }
  mig_.victim = victim;
  mig_.page = page;
  mig_.old_ppa = flash::Ppa{victim.channel, victim.lun, victim.plane,
                            victim.block, page};
  const std::uint64_t old_gen =
      controller_->flash()->GetBlockInfo(victim).erase_count;
  mig_.old_name = (old_gen << kPpaBits) | mig_.old_ppa.Flatten(g);
  const std::uint64_t epoch = epoch_;
  auto read = [this, epoch](StatusOr<flash::PageData> res) {
    if (epoch != epoch_) return;
    OnMigrateRead(std::move(res));
  };
  static_assert(ssd::Controller::ReadCallback::fits<decltype(read)>());
  controller_->ReadPage(mig_.old_ppa, std::move(read), kMigrateCtx);
}

void AppendFtl::OnMigrateRead(StatusOr<flash::PageData> res) {
  if (!res.ok()) {
    // The copy is lost to the media. Abort: the block keeps its
    // remaining data and is never erased under a live name.
    counters_.Increment("migrate_read_failures");
    AbortMigration();
    return;
  }
  flash::PageData d = *res;
  d.seq = next_seq_++;
  Region& r = regions_[MigrationRegion()];
  mig_.dst = flash::Ppa{r.active.channel, r.active.lun, r.active.plane,
                        r.active.block, r.next_page++};
  mig_.dst_flat = FlatBlock(r.active);
  ++in_flight_[mig_.dst_flat];
  const std::uint64_t epoch = epoch_;
  auto programmed = [this, epoch](Status st) {
    if (epoch != epoch_) return;
    OnMigrateProgrammed(std::move(st));
  };
  static_assert(ssd::Controller::OpCallback::fits<decltype(programmed)>());
  controller_->ProgramPage(mig_.dst, d, std::move(programmed), kMigrateCtx);
}

void AppendFtl::OnMigrateProgrammed(Status st) {
  --in_flight_[mig_.dst_flat];
  if (!st.ok()) {
    AbortMigration();
    return;
  }
  if (controller_->flash()->GetPageState(mig_.old_ppa) !=
      flash::PageState::kValid) {
    // The host freed the page while its copy was in flight. The free
    // already took the victim's live count and the host no longer owns
    // the name, so the copy is dead on arrival: drop it, with no count
    // changes and no listener call.
    counters_.Increment("migrate_copies_dropped");
    (void)controller_->flash()->MarkInvalid(mig_.dst);
    RelocateNext(mig_.victim, mig_.page + 1);
    return;
  }
  ++live_count_[mig_.dst_flat];
  (void)controller_->flash()->MarkInvalid(mig_.old_ppa);
  assert(live_count_[FlatBlock(mig_.victim)] > 0 &&
         "live count would wrap");
  --live_count_[FlatBlock(mig_.victim)];
  counters_.Increment("migrate_page_moves");
  const std::uint64_t new_gen =
      controller_->flash()->GetBlockInfo(mig_.dst.Block()).erase_count;
  const std::uint64_t new_name =
      (new_gen << kPpaBits) | mig_.dst.Flatten(geom());
  // The peer call the paper asks for: the device moved the page, so it
  // *says so* before the old name can go stale.
  if (migration_listener_) migration_listener_(mig_.old_name, new_name);
  RelocateNext(mig_.victim, mig_.page + 1);
}

void AppendFtl::AbortMigration() {
  counters_.Increment("migrate_aborts");
  migrating_ = false;
  --in_flight_[FlatBlock(mig_.victim)];
  EraseIfDead(mig_.victim);  // the pin may have deferred a host erase
  FailQueueIfStuck();
}

void AppendFtl::FinishVictim(flash::BlockAddr victim) {
  const std::uint64_t flat = FlatBlock(victim);
  counters_.Increment("migrate_erases");
  // The collection pin from CollectVictim carries through the erase and
  // is released by its completion.
  const std::uint64_t epoch = epoch_;
  auto erased = [this, epoch, victim, flat](Status st) {
    if (epoch != epoch_) return;
    --in_flight_[flat];
    migrating_ = false;
    if (st.ok()) {
      is_free_[flat] = true;
      free_[victim.GlobalLun(geom())].push_back(victim);
    }
    PumpQueue();
    MaybeStartMigration();
    FailQueueIfStuck();
  };
  static_assert(ssd::Controller::OpCallback::fits<decltype(erased)>());
  controller_->EraseBlock(victim, std::move(erased), kMigrateCtx);
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

std::vector<AppendFtl::LiveName> AppendFtl::LiveNames() const {
  std::vector<LiveName> out;
  const auto& g = geom();
  for (std::uint64_t flat = 0; flat < g.total_blocks(); ++flat) {
    const flash::BlockAddr addr = flash::BlockAddr::FromFlat(g, flat);
    const flash::BlockInfo& bi = controller_->flash()->GetBlockInfo(addr);
    if (bi.bad || bi.write_point == 0) continue;
    for (std::uint32_t page = 0; page < bi.write_point; ++page) {
      const flash::Ppa ppa{addr.channel, addr.lun, addr.plane, addr.block,
                           page};
      if (controller_->flash()->GetPageState(ppa) !=
          flash::PageState::kValid) {
        continue;
      }
      auto peek = controller_->flash()->Peek(ppa);
      if (!peek.ok()) continue;
      LiveName ln;
      ln.name = (static_cast<std::uint64_t>(bi.erase_count) << kPpaBits) |
                ppa.Flatten(g);
      ln.owner = peek->lba;
      ln.owner_epoch = peek->group;
      out.push_back(ln);
    }
  }
  return out;
}

Status AppendFtl::PowerCycle() {
  counters_.Increment("power_cycles");
  ++epoch_;
  controller_->PowerCycle();
  // Every queued or in-flight op died with the power: the controller
  // drops in-flight continuations, so no slot is referenced any more.
  queue_.clear();
  appends_.ReleaseAll();
  reads_.ReleaseAll();
  frees_.ReleaseAll();
  refresh_queue_.clear();
  migrating_ = false;
  pending_reclaims_ = 0;
  for (Region& r : regions_) r = Region{};
  next_lun_ = 0;
  for (auto& f : free_) f.clear();
  live_pages_ = 0;
  const auto& g = geom();
  std::vector<flash::BlockAddr> dead;
  for (std::uint64_t flat = 0; flat < g.total_blocks(); ++flat) {
    const flash::BlockAddr addr = flash::BlockAddr::FromFlat(g, flat);
    const flash::BlockInfo& bi = controller_->flash()->GetBlockInfo(addr);
    in_flight_[flat] = 0;
    is_active_[flat] = false;
    live_count_[flat] = 0;
    if (bi.bad) {
      is_free_[flat] = false;
      continue;
    }
    if (bi.write_point == 0) {
      is_free_[flat] = true;
      free_[addr.GlobalLun(g)].push_back(addr);
      continue;
    }
    is_free_[flat] = false;
    std::uint32_t live = 0;
    for (std::uint32_t page = 0; page < bi.write_point; ++page) {
      if (controller_->flash()->GetPageState({addr.channel, addr.lun,
                                              addr.plane, addr.block,
                                              page}) ==
          flash::PageState::kValid) {
        ++live;
      }
    }
    live_count_[flat] = live;
    live_pages_ += live;
    if (live == 0) dead.push_back(addr);
  }
  // Fully-dead survivors (the host freed them; power died before the
  // erase) go back through the normal reclaim path.
  for (const flash::BlockAddr& addr : dead) EraseIfDead(addr);
  return Status::Ok();
}

}  // namespace postblock::ftl
