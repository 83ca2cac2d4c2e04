#include "ssd/device.h"

#include <memory>
#include <utility>
#include <vector>

#include "ftl/block_ftl.h"
#include "ftl/dftl.h"
#include "ftl/hybrid_ftl.h"
#include "ssd/shard_router.h"

namespace postblock::ssd {

std::unique_ptr<ftl::Ftl> MakeFtl(Controller* controller) {
  switch (controller->config().ftl) {
    case FtlKind::kPageMap:
      return std::make_unique<ftl::PageFtl>(controller);
    case FtlKind::kBlockMap:
      return std::make_unique<ftl::BlockFtl>(controller);
    case FtlKind::kHybrid:
      return std::make_unique<ftl::HybridFtl>(controller);
    case FtlKind::kDftl:
      return std::make_unique<ftl::Dftl>(controller);
    case FtlKind::kVisionAppend:
      return std::make_unique<ftl::AppendFtl>(controller);
  }
  return nullptr;
}

Device::Device(sim::Simulator* sim, const Config& config)
    : sim_(sim), config_(config), tracer_(config.tracer) {
  // Track order is part of the trace contract: the device track
  // precedes every controller track, in both ctors.
  if (tracer_ != nullptr) {
    dev_track_ = tracer_->RegisterTrack(trace::kPidHost, "ssd-device");
  }
  controller_ = std::make_unique<Controller>(sim, config_);
  Init();
}

Device::Device(ShardRouter* router, const Config& config,
               const std::vector<trace::Tracer*>& channel_tracers)
    : sim_(router->controller_sim()),
      router_(router),
      config_(config),
      tracer_(config.tracer) {
  if (tracer_ != nullptr) {
    dev_track_ = tracer_->RegisterTrack(trace::kPidHost, "ssd-device");
  }
  controller_ =
      std::make_unique<Controller>(router, config_, channel_tracers);
  Init();
}

void Device::Init() {
  ftl_ = MakeFtl(controller_.get());
  page_ftl_ = dynamic_cast<ftl::PageFtl*>(ftl_.get());
  append_ftl_ = dynamic_cast<ftl::AppendFtl*>(ftl_.get());
  if (config_.write_buffer.pages > 0) {
    write_buffer_ = std::make_unique<WriteBuffer>(
        sim_, ftl_.get(), config_.write_buffer,
        config_.geometry.luns());
  }
  metrics_ = config_.metrics;
  if (metrics_ != nullptr) {
    m_requests_ = metrics_->AddCounter("dev.requests");
    m_completions_ = metrics_->AddCounter("dev.completions");
    m_read_lat_ = metrics_->AddHistogram("dev.read_lat_ns");
    m_write_lat_ = metrics_->AddHistogram("dev.write_lat_ns");
    metrics_->AddGauge("dev.write_amplification",
                       [this] { return WriteAmplification(); });
    metrics_->AddGauge("dev.write_buffer_pages", [this] {
      return write_buffer_ == nullptr
                 ? 0.0
                 : static_cast<double>(write_buffer_->entries());
    });
    metrics_->AddPolledCounter("dev.buffer_read_hits", [this] {
      return counters_.Get("buffer_read_hits");
    });
    ftl_->RegisterMetrics(metrics_);
  }
}

void Device::Submit(blocklayer::IoRequest request) {
  Admit(std::move(request), 0);
}

void Device::SubmitBatch(std::vector<blocklayer::IoRequest> batch) {
  // One doorbell ring: the firmware fetches the batch's SQ entries in
  // order, so the i-th command's admission is offset by i fetch costs —
  // but the fixed controller overhead is paid once for the whole ring.
  counters_.Increment("doorbell_rings");
  counters_.Add("doorbell_cmds", batch.size());
  SimTime offset = 0;
  for (blocklayer::IoRequest& r : batch) {
    Admit(std::move(r), offset);
    offset += config_.doorbell_cmd_ns;
  }
}

void Device::Admit(blocklayer::IoRequest request, SimTime admit_delay) {
  counters_.Increment("requests");
  if (metrics_ != nullptr) metrics_->Increment(m_requests_);
  counters_.Increment(std::string("requests_") +
                      blocklayer::IoOpName(request.op));
  if (request.op == blocklayer::IoOp::kWrite &&
      request.tokens.size() != request.nblocks) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(blocklayer::IoResult{
          Status::InvalidArgument("write token count != nblocks"), {}});
    });
    return;
  }
  if (request.nblocks == 0) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(blocklayer::IoResult{Status::Ok(), {}});
    });
    return;
  }
  if (request.lba + request.nblocks > num_blocks()) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(blocklayer::IoResult{
          Status::OutOfRange("request beyond device"), {}});
    });
    return;
  }
  // Trace identity: mint the root span if no layer above is tracing
  // this request; admission cost becomes a kSchedule span on the device
  // track either way.
  bool root = false;
  const SimTime submit_t = sim_->Now();
  const SimTime admit_cost = config_.controller_overhead_ns + admit_delay;
  if (Traced()) {
    if (request.span == 0) {
      request.span = tracer_->NewSpan();
      root = true;
    }
    tracer_->Record(trace::Stage::kSchedule, blocklayer::OriginOf(request.op),
                    request.span, 0, dev_track_, submit_t,
                    submit_t + admit_cost, request.lba);
  }

  // Firmware admission cost, then fan out page ops. Requests still in
  // admission when power is cut are dropped whole.
  IoSlot* slot = io_slots_.Acquire();
  slot->request = std::move(request);
  slot->epoch = epoch_;
  slot->root = root;
  slot->submit_t = submit_t;
  auto admitted = [this, slot] {
    if (slot->epoch != epoch_) {
      io_slots_.Release(slot);
      return;
    }
    SubmitPageOps(slot);
  };
  static_assert(sim::InplaceCallback::fits<decltype(admitted)>());
  sim_->Schedule(admit_cost, std::move(admitted));
}

void Device::SubmitPageOps(IoSlot* slot) {
  // A page op may complete synchronously (a legacy FTL that fails fast),
  // and the last completion recycles the slot: read everything the loops
  // need up front, and touch the slot only before each page op.
  const blocklayer::IoRequest& request = slot->request;
  const blocklayer::IoOp op = request.op;
  const Lba first = request.lba;
  const std::uint32_t n = request.nblocks;
  const trace::SpanId span = request.span;
  slot->start = sim_->Now();
  slot->remaining = n;
  slot->tokens.assign(op == blocklayer::IoOp::kRead ? n : 0, 0);

  // Per-page trace context: origin always rides along (it feeds the
  // always-on GC-stall counters); spans only exist while tracing is
  // enabled. Multi-page requests get child spans so per-page flash work
  // still nests under the request in the trace.
  const trace::Origin origin = blocklayer::OriginOf(op);
  const bool fanout = Traced() && span != 0 && n > 1;
  auto page_ctx = [this, span, origin, fanout]() {
    trace::Ctx ctx{span, 0, origin};
    if (fanout) {
      ctx.span = tracer_->NewSpan();
      ctx.parent = span;
    }
    return ctx;
  };
  auto page_done = [this, slot](std::uint32_t i) {
    auto done = [this, slot, i](Status st) {
      OnPage(slot, i, std::move(st), 0);
    };
    static_assert(ftl::Ftl::WriteCallback::fits<decltype(done)>());
    return done;
  };

  switch (op) {
    case blocklayer::IoOp::kRead:
      for (std::uint32_t i = 0; i < n; ++i) {
        const Lba lba = first + i;
        std::uint64_t buffered = 0;
        if (write_buffer_ != nullptr &&
            write_buffer_->Lookup(lba, &buffered)) {
          counters_.Increment("buffer_read_hits");
          if (Traced() && span != 0) {
            // Served from the write cache: a kMap blip, no flash work.
            tracer_->Record(trace::Stage::kMap, origin, span, 0,
                            dev_track_, sim_->Now(),
                            sim_->Now() + config_.write_buffer.insert_ns,
                            lba);
          }
          auto hit = [this, slot, i, buffered] {
            OnPage(slot, i, Status::Ok(), buffered);
          };
          static_assert(sim::InplaceCallback::fits<decltype(hit)>());
          sim_->Schedule(config_.write_buffer.insert_ns, std::move(hit));
          continue;
        }
        auto done = [this, slot, i](StatusOr<std::uint64_t> res) {
          if (res.ok()) {
            OnPage(slot, i, Status::Ok(), *res);
          } else {
            OnPage(slot, i, res.status(), 0);
          }
        };
        static_assert(ftl::Ftl::ReadCallback::fits<decltype(done)>());
        ftl_->Read(lba, std::move(done), page_ctx());
      }
      break;
    case blocklayer::IoOp::kWrite:
      for (std::uint32_t i = 0; i < n; ++i) {
        const Lba lba = first + i;
        const std::uint64_t token = request.tokens[i];
        if (write_buffer_ != nullptr) {
          // Buffered writes complete at insert; the deferred drain is
          // background work no single host IO can claim, so spans stop
          // here and the drain's flash ops run under the default
          // (kMeta) context.
          write_buffer_->SubmitWrite(lba, token, page_done(i));
        } else {
          ftl_->Write(lba, token, page_done(i), page_ctx());
        }
      }
      break;
    case blocklayer::IoOp::kTrim:
      for (std::uint32_t i = 0; i < n; ++i) {
        const Lba lba = first + i;
        if (write_buffer_ != nullptr) write_buffer_->Drop(lba);
        ftl_->Trim(lba, page_done(i), page_ctx());
      }
      break;
    case blocklayer::IoOp::kFlush: {
      // Single logical page op regardless of nblocks.
      slot->remaining = 1;
      if (write_buffer_ != nullptr) {
        write_buffer_->Flush(page_done(0));
      } else {
        auto flushed = [this, slot] { OnPage(slot, 0, Status::Ok(), 0); };
        static_assert(sim::InplaceCallback::fits<decltype(flushed)>());
        sim_->Schedule(0, std::move(flushed));
      }
      break;
    }
  }
}

void Device::OnPage(IoSlot* slot, std::uint32_t index, Status st,
                    std::uint64_t token) {
  const blocklayer::IoRequest& request = slot->request;
  if (!st.ok() && slot->first_error.ok()) slot->first_error = st;
  if (request.op == blocklayer::IoOp::kRead &&
      index < slot->tokens.size()) {
    slot->tokens[index] = token;
  }
  if (--slot->remaining > 0) return;
  const SimTime latency = sim_->Now() - slot->start;
  switch (request.op) {
    case blocklayer::IoOp::kRead:
      read_latency_.Record(latency);
      if (metrics_ != nullptr) metrics_->Record(m_read_lat_, latency);
      break;
    case blocklayer::IoOp::kWrite:
      write_latency_.Record(latency);
      if (metrics_ != nullptr) metrics_->Record(m_write_lat_, latency);
      break;
    default:
      break;
  }
  counters_.Increment("completions");
  if (metrics_ != nullptr) metrics_->Increment(m_completions_);
  // Completion routing: a multi-queue submitter stamps its software
  // queue id on the callback; attribute the CQ post to that queue.
  const std::uint16_t qid = request.on_complete.queue_id;
  if (qid != blocklayer::IoCallback::kNoQueue) {
    if (cq_posts_.size() <= qid) cq_posts_.resize(qid + 1, 0);
    ++cq_posts_[qid];
  }
  if (slot->root && tracer_ != nullptr) {
    tracer_->Record(trace::Stage::kIo, blocklayer::OriginOf(request.op),
                    request.span, 0, dev_track_, slot->submit_t,
                    sim_->Now(), request.lba);
  }
  FinishSlot(slot, blocklayer::IoResult{slot->first_error,
                                        std::move(slot->tokens)});
}

void Device::FinishSlot(IoSlot* slot, blocklayer::IoResult result) {
  blocklayer::IoCallback cb = std::move(slot->request.on_complete);
  io_slots_.Release(slot);
  if (cb) cb(result);
}

bool Device::Supports(host::CommandKind kind) const {
  switch (kind) {
    case host::CommandKind::kRead:
    case host::CommandKind::kWrite:
    case host::CommandKind::kTrim:
      // A vision-append device has no logical address space to offer:
      // the block vocabulary is honestly refused, not emulated.
      return append_ftl_ == nullptr;
    case host::CommandKind::kFlush:
    case host::CommandKind::kHint:
      return true;
    case host::CommandKind::kAtomicGroup:
      // Atomic groups need the page-mapping FTL's commit marker.
      return page_ftl_ != nullptr;
    case host::CommandKind::kNamelessWrite:
    case host::CommandKind::kNamelessRead:
    case host::CommandKind::kNamelessFree:
      // Native under vision-append; emulated over hidden LBA slots on
      // the page-mapping FTL.
      return append_ftl_ != nullptr || page_ftl_ != nullptr;
  }
  return false;
}

host::DeviceCaps Device::Caps() const {
  host::DeviceCaps caps = host::HostInterface::Caps();
  if (append_ftl_ != nullptr) {
    caps.append_regions = config_.append_regions;
  }
  caps.mapping_table_bytes = ftl_->MappingTableBytes();
  return caps;
}

void Device::SetMigrationHandler(host::MigrationHandler handler) {
  migration_handler_ = std::move(handler);
  if (migration_handler_) EnsureMigrationListener();
}

void Device::EnsureMigrationListener() {
  if (migration_listener_registered_) return;
  if (append_ftl_ != nullptr) {
    append_ftl_->SetMigrationListener(
        [this](std::uint64_t old_name, std::uint64_t new_name) {
          counters_.Increment("nameless_migrations");
          if (migration_handler_) migration_handler_(old_name, new_name);
        });
    migration_listener_registered_ = true;
  } else if (page_ftl_ != nullptr) {
    page_ftl_->SetMigrationListener(
        [this](Lba lba, flash::Ppa old_ppa, flash::Ppa new_ppa) {
          OnPageFtlMigration(lba, old_ppa, new_ppa);
        });
    migration_listener_registered_ = true;
  }
}

void Device::OnPageFtlMigration(Lba lba, const flash::Ppa& old_ppa,
                                const flash::Ppa& new_ppa) {
  // GC/WL moved some page; only named slots concern us, and only if the
  // host's name still points where the FTL moved from (a slot rewritten
  // mid-flight keeps its newer name).
  auto slot = slot_to_name_.find(lba);
  if (slot == slot_to_name_.end()) return;
  const std::uint64_t old_name = old_ppa.Flatten(config_.geometry);
  if (slot->second != old_name) return;
  const std::uint64_t new_name = new_ppa.Flatten(config_.geometry);
  name_to_slot_.erase(old_name);
  name_to_slot_[new_name] = lba;
  slot->second = new_name;
  counters_.Increment("nameless_migrations");
  if (migration_handler_) migration_handler_(old_name, new_name);
}

void Device::Execute(host::Command cmd) {
  switch (cmd.kind) {
    case host::CommandKind::kAtomicGroup:
      ExecuteAtomicGroup(std::move(cmd));
      return;
    case host::CommandKind::kNamelessWrite:
      ExecuteNamelessWrite(std::move(cmd));
      return;
    case host::CommandKind::kNamelessRead:
      ExecuteNamelessRead(std::move(cmd));
      return;
    case host::CommandKind::kNamelessFree:
      ExecuteNamelessFree(std::move(cmd));
      return;
    case host::CommandKind::kHint:
      counters_.Increment("hints");
      if (cmd.on_complete) {
        cmd.on_complete(blocklayer::IoResult{Status::Ok(), {}});
      }
      return;
    default:
      if (append_ftl_ != nullptr &&
          cmd.kind != host::CommandKind::kFlush) {
        // No logical address space: typed refusal, never a silent drop.
        counters_.Increment("lba_commands_refused");
        if (cmd.on_complete) {
          cmd.on_complete(blocklayer::IoResult{
              Status::Unimplemented(
                  "vision-append device has no logical address space"),
              {}});
        }
        return;
      }
      // Block-expressible kinds lower onto Submit via the base class.
      blocklayer::BlockDevice::Execute(std::move(cmd));
      return;
  }
}

void Device::ExecuteAtomicGroup(host::Command cmd) {
  if (page_ftl_ == nullptr) {
    if (cmd.on_complete) {
      cmd.on_complete(blocklayer::IoResult{
          Status::Unimplemented(
              "atomic groups require the page-mapping FTL"),
          {}});
    }
    return;
  }
  counters_.Increment("atomic_groups");
  IoSlot* slot = io_slots_.Acquire();
  slot->request.on_complete = std::move(cmd.on_complete);
  auto done = [this, slot](Status st) {
    FinishSlot(slot, blocklayer::IoResult{std::move(st), {}});
  };
  static_assert(ftl::Ftl::WriteCallback::fits<decltype(done)>());
  page_ftl_->WriteAtomic(std::move(cmd.group), std::move(done),
                         trace::Ctx{cmd.span, 0, trace::Origin::kHostWrite});
}

void Device::ExecuteNamelessWrite(host::Command cmd) {
  if (append_ftl_ != nullptr) {
    // Native physical append: the FTL picks the location, issues the
    // name, and persists the command's OOB owner stamp (lba = owner
    // tag, nblocks = owner epoch; 0 = unstamped).
    counters_.Increment("nameless_writes");
    EnsureMigrationListener();
    const std::uint64_t token = cmd.tokens.empty() ? 0 : cmd.tokens[0];
    const Lba owner =
        cmd.nblocks == 0 ? flash::kNamelessLba : cmd.lba;
    IoSlot* slot = io_slots_.Acquire();
    slot->request.on_complete = std::move(cmd.on_complete);
    auto named = [this, slot](StatusOr<std::uint64_t> res) {
      if (res.ok()) {
        FinishSlot(slot, blocklayer::IoResult{Status::Ok(), {*res}});
      } else {
        FinishSlot(slot, blocklayer::IoResult{res.status(), {}});
      }
    };
    static_assert(ftl::AppendFtl::NameCallback::fits<decltype(named)>());
    append_ftl_->NamelessWrite(
        token, owner, cmd.nblocks, cmd.stream, std::move(named),
        trace::Ctx{cmd.span, 0, trace::Origin::kHostWrite});
    return;
  }
  if (page_ftl_ == nullptr) {
    if (cmd.on_complete) {
      cmd.on_complete(blocklayer::IoResult{
          Status::Unimplemented(
              "nameless writes require the page-mapping or "
              "vision-append FTL"),
          {}});
    }
    return;
  }
  // Emulation over the page map: park the unnamed page in a hidden LBA
  // slot (recycled first, lowest never-used otherwise) and report the
  // slot's physical address as the name. The slot map lets the device
  // resolve later named reads/frees and track GC moves.
  EnsureMigrationListener();
  Lba lba;
  if (!nameless_free_.empty()) {
    lba = nameless_free_.front();
    nameless_free_.pop_front();
  } else if (nameless_next_ < num_blocks()) {
    lba = nameless_next_++;
  } else {
    if (cmd.on_complete) {
      cmd.on_complete(blocklayer::IoResult{
          Status::ResourceExhausted("no nameless slots left"), {}});
    }
    return;
  }
  counters_.Increment("nameless_writes");
  const std::uint64_t token = cmd.tokens.empty() ? 0 : cmd.tokens[0];
  IoSlot* slot = io_slots_.Acquire();
  slot->request.on_complete = std::move(cmd.on_complete);
  auto done = [this, slot, lba](Status st) {
    if (!st.ok()) {
      nameless_free_.push_back(lba);
      FinishSlot(slot, blocklayer::IoResult{std::move(st), {}});
      return;
    }
    std::uint64_t name = 0;
    if (auto ppa = page_ftl_->Locate(lba)) {
      name = ppa->Flatten(config_.geometry);
      auto old = slot_to_name_.find(lba);
      if (old != slot_to_name_.end()) name_to_slot_.erase(old->second);
      name_to_slot_[name] = lba;
      slot_to_name_[lba] = name;
    }
    FinishSlot(slot, blocklayer::IoResult{Status::Ok(), {name}});
  };
  static_assert(ftl::Ftl::WriteCallback::fits<decltype(done)>());
  page_ftl_->Write(lba, token, std::move(done),
                   trace::Ctx{cmd.span, 0, trace::Origin::kHostWrite});
}

void Device::ExecuteNamelessRead(host::Command cmd) {
  IoSlot* slot = io_slots_.Acquire();
  slot->request.on_complete = std::move(cmd.on_complete);
  auto complete = [this, slot](StatusOr<std::uint64_t> res) {
    if (res.ok()) {
      FinishSlot(slot, blocklayer::IoResult{Status::Ok(), {*res}});
    } else {
      FinishSlot(slot, blocklayer::IoResult{res.status(), {}});
    }
  };
  static_assert(ftl::Ftl::ReadCallback::fits<decltype(complete)>());
  if (append_ftl_ != nullptr) {
    counters_.Increment("nameless_reads");
    append_ftl_->NamelessRead(
        cmd.lba, complete,
        trace::Ctx{cmd.span, 0, trace::Origin::kHostRead});
    return;
  }
  if (page_ftl_ == nullptr) {
    sim_->Schedule(0, [complete]() {
      complete(Status::Unimplemented(
          "nameless reads require the page-mapping or vision-append "
          "FTL"));
    });
    return;
  }
  counters_.Increment("nameless_reads");
  auto it = name_to_slot_.find(cmd.lba);
  if (it == name_to_slot_.end()) {
    const std::uint64_t epoch = epoch_;
    sim_->Schedule(0, [this, epoch, slot, complete]() {
      if (epoch != epoch_) {
        io_slots_.Release(slot);
        return;
      }
      complete(Status::NotFound("stale name: page freed or migrated"));
    });
    return;
  }
  page_ftl_->Read(it->second, complete,
                  trace::Ctx{cmd.span, 0, trace::Origin::kHostRead});
}

void Device::ExecuteNamelessFree(host::Command cmd) {
  IoSlot* slot = io_slots_.Acquire();
  slot->request.on_complete = std::move(cmd.on_complete);
  auto complete = [this, slot](Status st) {
    FinishSlot(slot, blocklayer::IoResult{std::move(st), {}});
  };
  static_assert(ftl::Ftl::WriteCallback::fits<decltype(complete)>());
  if (append_ftl_ != nullptr) {
    counters_.Increment("nameless_frees");
    append_ftl_->NamelessFree(
        cmd.lba, complete,
        trace::Ctx{cmd.span, 0, trace::Origin::kHostTrim});
    return;
  }
  if (page_ftl_ == nullptr) {
    sim_->Schedule(0, [complete]() {
      complete(Status::Unimplemented(
          "nameless frees require the page-mapping or vision-append "
          "FTL"));
    });
    return;
  }
  counters_.Increment("nameless_frees");
  auto it = name_to_slot_.find(cmd.lba);
  if (it == name_to_slot_.end()) {
    const std::uint64_t epoch = epoch_;
    sim_->Schedule(0, [this, epoch, slot, complete]() {
      if (epoch != epoch_) {
        io_slots_.Release(slot);
        return;
      }
      complete(Status::NotFound("stale name: page freed or migrated"));
    });
    return;
  }
  const Lba name_slot = it->second;
  name_to_slot_.erase(it);
  slot_to_name_.erase(name_slot);
  page_ftl_->Trim(
      name_slot,
      [this, complete, name_slot](Status st) {
        if (st.ok()) nameless_free_.push_back(name_slot);
        complete(std::move(st));
      },
      trace::Ctx{cmd.span, 0, trace::Origin::kHostTrim});
}

Status Device::PowerCycle() {
  if (page_ftl_ == nullptr && append_ftl_ == nullptr) {
    return Status::Unimplemented(
        "power-cycle recovery requires the page-mapping or "
        "vision-append FTL");
  }
  counters_.Increment("power_cycles");
  ++epoch_;
  if (write_buffer_ != nullptr && !config_.write_buffer.battery_backed) {
    write_buffer_->DiscardAll();
  }
  if (append_ftl_ != nullptr) {
    // Names are physical: nothing device-side to rebuild beyond the
    // FTL's per-block state. The *host* rescans via LiveNames().
    PB_RETURN_IF_ERROR(append_ftl_->PowerCycle());
    return Status::Ok();
  }
  PB_RETURN_IF_ERROR(page_ftl_->PowerCycle());
  // The nameless slot maps are device DRAM: lost with power, rebuilt
  // from the recovered L2P (the name of a surviving slot is wherever
  // the OOB scan says it lives now; unmapped slots return to the free
  // pool in ascending order — deterministic).
  name_to_slot_.clear();
  slot_to_name_.clear();
  nameless_free_.clear();
  for (Lba lba = 0; lba < nameless_next_; ++lba) {
    if (auto ppa = page_ftl_->Locate(lba)) {
      const std::uint64_t name = ppa->Flatten(config_.geometry);
      name_to_slot_[name] = lba;
      slot_to_name_[lba] = name;
    } else {
      nameless_free_.push_back(lba);
    }
  }
  // Battery-backed buffers keep their contents; requeue them against
  // the rebuilt FTL (their old drain completions died with the epoch).
  if (write_buffer_ != nullptr && config_.write_buffer.battery_backed) {
    write_buffer_->RequeueAfterPowerCycle();
  }
  return Status::Ok();
}

}  // namespace postblock::ssd
