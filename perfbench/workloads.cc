// The four perfbench workloads. Each one loads a different part of the
// stack, so a change to one layer moves one workload and leaves the
// others as its control:
//
//   gc_churn    an aged page-mapped SSD with no host stack above it:
//               FTL garbage collection, controller, flash and the event
//               core do nearly all the work.
//   tenant_mq   vbd tenants over the multi-queue block layer over a
//               fresh SSD: GC stays idle, so the host path (vbd
//               admission, queue pairs, tags, callback plumbing) carries
//               the cost. The bypass for FTL work.
//   db_vision   the storage manager in its post-block wiring over a
//               host-managed append device: the only workload reaching
//               the DB, PCM, core, DirectDriver, HostMap and AppendFtl.
//   sharded_gc  the full SSD on the sharded engine at two workers: the
//               only workload running sim::ShardedEngine and
//               ssd::ShardRouter.
//
// Every client is closed loop: it issues its next op when the previous
// one completes. All inputs derive from the seed. The model has no
// hardware reference results, so it is unvalidated against real
// devices: the simulated (sim_*) numbers are fidelity fingerprints of
// the model, not accuracy claims.

#include "workloads.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "blocklayer/block_layer.h"
#include "common/rng.h"
#include "db/storage_manager.h"
#include "sim/sharded_engine.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "ssd/shard_plan.h"
#include "ssd/shard_router.h"
#include "vbd/backend.h"

namespace perfbench {
namespace {

namespace blk = postblock::blocklayer;
namespace ssd = postblock::ssd;
namespace sim = postblock::sim;
namespace vbd = postblock::vbd;
namespace db = postblock::db;
using postblock::Rng;
using postblock::Status;

double PerOp(double v, std::uint64_t ops) {
  return ops > 0 ? v / static_cast<double>(ops) : 0;
}

double SecondsSince(std::int64_t wall0) {
  return static_cast<double>(WallNs() - wall0) / 1e9;
}

/// Builds the device, or its shimmed twin in the traced run.
std::unique_ptr<ssd::Device> MakeDevice(Seam* seam, sim::Simulator* s,
                                        const ssd::Config& config) {
  if (seam != nullptr) {
    return std::make_unique<Shim<ssd::Device>>(seam, s, config);
  }
  return std::make_unique<ssd::Device>(s, config);
}

/// Device, FTL and flash counters at one instant; differences give the
/// measured phase's per-layer counts.
struct DeviceSnap {
  std::uint64_t events = 0;
  std::uint64_t flash_reads = 0;
  std::uint64_t flash_programs = 0;
  std::uint64_t flash_erases = 0;
  std::uint64_t host_pages = 0;
  std::uint64_t host_writes = 0;
  std::uint64_t relocations = 0;  // GC page moves (or append migrations)
  std::uint64_t reclaim_erases = 0;
  std::uint64_t gc_stall_ns = 0;

  static DeviceSnap Take(ssd::Device* d, std::uint64_t events) {
    DeviceSnap s;
    s.events = events;
    const postblock::Counters& flash = d->controller()->counters();
    const postblock::Counters& ftl = d->ftl()->counters();
    s.flash_reads = flash.Get("pages_read");
    s.flash_programs = flash.Get("pages_programmed");
    s.flash_erases = flash.Get("blocks_erased");
    s.host_pages = ftl.Get("host_pages_accepted");
    s.host_writes = ftl.Get("host_writes") + ftl.Get("nameless_writes");
    s.relocations =
        ftl.Get("gc_page_moves") + ftl.Get("migrate_page_moves");
    s.reclaim_erases = ftl.Get("gc_erases") + ftl.Get("migrate_erases");
    s.gc_stall_ns =
        d->controller()->GcStallReadNs() + d->controller()->GcStallWriteNs();
    return s;
  }
};

/// The sim, ftl and flash rows of the per-layer table.
void DeviceLayers(const DeviceSnap& a, const DeviceSnap& b, Rep* rep) {
  const std::uint64_t ops = rep->ops;
  const std::uint64_t host_pages = b.host_pages - a.host_pages;
  rep->wa = host_pages > 0
                ? static_cast<double>(b.flash_programs - a.flash_programs) /
                      static_cast<double>(host_pages)
                : 0;
  rep->events = b.events - a.events;
  auto& l = rep->layer;
  l["sim.events_per_op"] = PerOp(static_cast<double>(rep->events), ops);
  l["ftl.gc_moves_per_write"] =
      PerOp(static_cast<double>(b.relocations - a.relocations),
            b.host_writes - a.host_writes);
  l["ftl.gc_erases_per_op"] =
      PerOp(static_cast<double>(b.reclaim_erases - a.reclaim_erases), ops);
  l["ftl.gc_stall_us_per_op"] =
      PerOp(static_cast<double>(b.gc_stall_ns - a.gc_stall_ns) / 1e3, ops);
  l["flash.reads_per_op"] =
      PerOp(static_cast<double>(b.flash_reads - a.flash_reads), ops);
  l["flash.programs_per_op"] =
      PerOp(static_cast<double>(b.flash_programs - a.flash_programs), ops);
  l["flash.erases_per_op"] =
      PerOp(static_cast<double>(b.flash_erases - a.flash_erases), ops);
}

/// Wall and allocation attribution of a traced measured phase.
struct TraceMark {
  std::int64_t wall0 = 0;
  std::uint64_t allocs0 = 0;
  std::int64_t self_wall[kLayerCount] = {};
  std::uint64_t self_allocs[kLayerCount] = {};
  std::int64_t top_wall = 0;
  std::uint64_t top_allocs = 0;
  std::uint64_t first_op = 0;

  static TraceMark Take(SpanRecorder& r) {
    r.DropKept();
    TraceMark m;
    for (int i = 0; i < kLayerCount; ++i) {
      m.self_wall[i] = r.self_wall_ns(static_cast<Layer>(i));
      m.self_allocs[i] = r.self_allocs(static_cast<Layer>(i));
    }
    m.top_wall = r.top_wall_ns();
    m.top_allocs = r.top_allocs();
    m.first_op = r.ops_minted() + 1;
    m.allocs0 = AllocCount();
    m.wall0 = WallNs();
    return m;
  }
};

void TracedLayers(const SpanRecorder& r, const TraceMark& m,
                  std::int64_t wall1, std::uint64_t allocs1, Rep* rep) {
  const std::uint64_t ops = rep->ops;
  auto self_wall = [&](Layer l) {
    return PerOp(static_cast<double>(r.self_wall_ns(l) -
                                     m.self_wall[static_cast<int>(l)]),
                 ops);
  };
  auto self_allocs = [&](Layer l) {
    return PerOp(static_cast<double>(r.self_allocs(l) -
                                     m.self_allocs[static_cast<int>(l)]),
                 ops);
  };
  auto& t = rep->traced;
  t["driver.wall_ns_per_op"] = self_wall(Layer::kDriver);
  t["vbd.self_wall_ns_per_op"] = self_wall(Layer::kVbd);
  t["vbd.allocs_per_op"] = self_allocs(Layer::kVbd);
  t["blk.self_wall_ns_per_op"] = self_wall(Layer::kBlk);
  t["blk.allocs_per_op"] = self_allocs(Layer::kBlk);
  t["ssd.submit_wall_ns_per_op"] = self_wall(Layer::kSsd);
  t["db.self_wall_ns_per_op"] = self_wall(Layer::kDb);
  t["db.allocs_per_op"] = self_allocs(Layer::kDb);
  // Whatever ran outside every span: the event core and the device
  // internals its events execute.
  t["sim.event_wall_ns_per_op"] = PerOp(
      static_cast<double>((wall1 - m.wall0) - (r.top_wall_ns() - m.top_wall)),
      ops);
  t["sim.event_allocs_per_op"] = PerOp(
      static_cast<double>((allocs1 - m.allocs0) -
                          (r.top_allocs() - m.top_allocs)),
      ops);
}

/// ssd.read_p99_us / ssd.write_p99_us from the device seam.
void DeviceSeamLatency(const Seam& seam, Rep* rep) {
  std::vector<SimTime> reads = seam.read_latency();
  std::vector<SimTime> writes = seam.write_latency();
  rep->traced["ssd.read_p99_us"] =
      static_cast<double>(Percentile(&reads, 99)) / 1e3;
  rep->traced["ssd.write_p99_us"] =
      static_cast<double>(Percentile(&writes, 99)) / 1e3;
}

void Fail(Rep* rep, const std::string& what) {
  ++rep->failed;
  if (rep->first_failure.empty()) rep->first_failure = what;
}

// ---------------------------------------------------------------------
// The block client (gc_churn, tenant_mq, sharded_gc)

/// A closed-loop block client at a fixed depth with a shadow map of the
/// last token written to every LBA; every read is checked against it.
/// Two in-flight ops never share an LBA, so the expected token of a
/// read is always defined. Completions fold (sim time, status) into the
/// repetition's digest in completion order.
class BlockClient {
 public:
  BlockClient(sim::Simulator* s, blk::BlockDevice* dev, std::uint64_t lbas,
              std::uint64_t seed, SpanRecorder* rec)
      : sim_(s), dev_(dev), rng_(seed), shadow_(lbas, 0), rec_(rec) {}

  BlockClient(const BlockClient&) = delete;
  BlockClient& operator=(const BlockClient&) = delete;

  /// Issues the first `qd` of `ops` ops; the rest follow completions.
  /// `sequential` writes LBAs in order; otherwise LBAs are uniform and
  /// each op is a write with probability `write_fraction`. With `rep`
  /// null the ops are set-up work: failures go to setup_errors().
  void Start(std::uint64_t ops, std::uint32_t qd, double write_fraction,
             bool sequential, Rep* rep) {
    target_ = ops;
    issued_ = 0;
    completed_ = 0;
    write_fraction_ = write_fraction;
    sequential_ = sequential;
    rep_ = rep;
    slots_.assign(qd, Slot{});
    ScopedSpan span(rec_, sim_, Layer::kDriver, "driver.issue");
    for (std::uint32_t s = 0; s < qd && issued_ < target_; ++s) Issue(s);
  }

  bool done() const { return completed_ == target_; }

  /// Ops of the last Start() that never completed: the simulator ran
  /// out of events first (a lost completion or a stalled device).
  std::uint64_t missing() const { return target_ - completed_; }

  /// Start, then run the simulator until every op completed.
  void Run(std::uint64_t ops, std::uint32_t qd, double write_fraction,
           bool sequential, Rep* rep) {
    Start(ops, qd, write_fraction, sequential, rep);
    sim_->RunUntilPredicate([this] { return done(); });
  }

  /// Logs (sim time, LBA) of every op issued from now on.
  void LogIssues() { log_issues_ = true; }
  struct Issued {
    SimTime at;
    Lba lba;
  };
  const std::vector<Issued>& issues() const { return issues_; }

  const std::vector<std::string>& setup_errors() const {
    return setup_errors_;
  }

 private:
  struct Slot {
    SimTime start = 0;
    Lba lba = 0;
    std::uint64_t token = 0;  // 0 = read
    bool busy = false;
  };

  bool LbaBusy(Lba lba) const {
    for (const Slot& s : slots_) {
      if (s.busy && s.lba == lba) return true;
    }
    return false;
  }

  void Issue(std::uint32_t s) {
    Slot& slot = slots_[s];
    ++issued_;
    const bool write = sequential_ || rng_.Bernoulli(write_fraction_);
    Lba lba;
    if (sequential_) {
      lba = next_seq_++ % shadow_.size();
    } else {
      do {
        lba = rng_.Uniform(shadow_.size());
      } while (LbaBusy(lba));
    }
    slot = Slot{sim_->Now(), lba, write ? ++last_token_ : 0, true};
    if (log_issues_) issues_.push_back({slot.start, lba});
    blk::IoRequest req;
    req.op = write ? blk::IoOp::kWrite : blk::IoOp::kRead;
    req.lba = lba;
    if (write) req.tokens.push_back(slot.token);
    req.on_complete = [this, s](const blk::IoResult& r) { OnDone(s, r); };
    dev_->Submit(std::move(req));
  }

  void OnDone(std::uint32_t s, const blk::IoResult& r) {
    ScopedSpan span(rec_, sim_, Layer::kDriver, "driver.complete");
    Slot& slot = slots_[s];
    slot.busy = false;
    ++completed_;
    const bool write = slot.token != 0;
    const std::string what =
        std::string(write ? "write" : "read") + " lba " +
        std::to_string(slot.lba);
    if (rep_ != nullptr) {
      rep_->latency.push_back(sim_->Now() - slot.start);
      rep_->digest = Fnv(Fnv(rep_->digest, sim_->Now()), r.status.ok());
    }
    if (!r.status.ok()) {
      if (rep_ != nullptr) {
        Fail(rep_, what + ": " + r.status.ToString());
      } else {
        setup_errors_.push_back(what + ": " + r.status.ToString());
      }
    } else if (write) {
      shadow_[slot.lba] = slot.token;
    } else if (shadow_[slot.lba] != 0 &&
               (r.tokens.size() != 1 || r.tokens[0] != shadow_[slot.lba])) {
      (rep_ != nullptr ? rep_->errors : setup_errors_)
          .push_back(what + " returned stale data");
    }
    if (issued_ < target_) Issue(s);
  }

  sim::Simulator* sim_;
  blk::BlockDevice* dev_;
  Rng rng_;
  std::vector<std::uint64_t> shadow_;
  SpanRecorder* rec_;
  std::vector<Slot> slots_;
  std::uint64_t target_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_token_ = 0;
  double write_fraction_ = 0;
  bool sequential_ = false;
  Rep* rep_ = nullptr;
  bool log_issues_ = false;
  std::vector<Issued> issues_;
  std::vector<std::string> setup_errors_;
};

void SetupErrors(const BlockClient& client, Rep* rep) {
  for (const std::string& e : client.setup_errors()) {
    rep->errors.push_back("setup: " + e);
  }
  if (client.missing() > 0) {
    rep->errors.push_back("setup: " + std::to_string(client.missing()) +
                          " ops never completed");
  }
}

void MissingOps(const BlockClient& client, Rep* rep) {
  if (client.missing() > 0) {
    rep->errors.push_back(std::to_string(client.missing()) +
                          " ops never completed");
  }
}

// ---------------------------------------------------------------------
// gc_churn

constexpr std::uint64_t kChurnOps = 80'000;
constexpr std::uint32_t kChurnDepth = 8;

Rep RunGcChurn(const RepSpec& spec) {
  Rep rep;
  const std::int64_t t0 = WallNs();
  sim::Simulator s;
  ssd::Config config = ssd::Config::Consumer2012();
  config.over_provisioning = 0.10;
  config.seed = spec.seed;
  std::unique_ptr<Seam> seam;
  if (spec.rec != nullptr) {
    seam = std::make_unique<Seam>(spec.rec, &s, Layer::kDriver, Layer::kSsd,
                                  "ssd.submit", "ssd.complete");
  }
  std::unique_ptr<ssd::Device> dev = MakeDevice(seam.get(), &s, config);
  const std::uint64_t lbas = dev->num_blocks();
  BlockClient client(&s, dev.get(), lbas, spec.seed, spec.rec);

  // Age the device: a sequential fill, then random overwrites in
  // slices of 1/8 of the LBA space until the slice's write
  // amplification changes by less than 2% (a pure function of the
  // seed, so every repetition ages identically).
  client.Run(lbas, kChurnDepth, 1.0, /*sequential=*/true, nullptr);
  if (client.missing() > 0) {
    SetupErrors(client, &rep);
    return rep;
  }
  double last_wa = 0;
  int slices = 0;
  while (slices < 16) {
    const DeviceSnap a = DeviceSnap::Take(dev.get(), s.events_executed());
    client.Run(lbas / 8, kChurnDepth, 1.0, /*sequential=*/false, nullptr);
    if (client.missing() > 0) break;
    const DeviceSnap b = DeviceSnap::Take(dev.get(), s.events_executed());
    const double wa = static_cast<double>(b.flash_programs - a.flash_programs) /
                      static_cast<double>(b.host_pages - a.host_pages);
    ++slices;
    const bool level = wa < last_wa * 1.02 && wa > last_wa * 0.98;
    last_wa = wa;
    if (slices >= 3 && level) break;
  }
  rep.setup_note = "aged with " + std::to_string(slices) +
                   " slices of random overwrites, last slice WA " +
                   std::to_string(last_wa);
  s.Run();  // drain background GC before the clock starts
  SetupErrors(client, &rep);
  rep.setup_s = SecondsSince(t0);
  if (!rep.errors.empty()) return rep;

  rep.ops = kChurnOps;
  const DeviceSnap a = DeviceSnap::Take(dev.get(), s.events_executed());
  const SimTime sim0 = s.Now();
  TraceMark mark;
  if (spec.rec != nullptr) {
    mark = TraceMark::Take(*spec.rec);
    seam->ClearLatency();
  }
  const std::uint64_t allocs0 = AllocCount();
  const std::int64_t w0 = WallNs();
  client.Run(kChurnOps, kChurnDepth, 0.5, /*sequential=*/false, &rep);
  const std::int64_t w1 = WallNs();
  MissingOps(client, &rep);
  const std::uint64_t allocs1 = AllocCount();
  rep.measure_s = static_cast<double>(w1 - w0) / 1e9;
  rep.allocs = allocs1 - allocs0;
  rep.sim_ns = s.Now() - sim0;
  DeviceLayers(a, DeviceSnap::Take(dev.get(), s.events_executed()), &rep);
  if (spec.rec != nullptr) {
    TracedLayers(*spec.rec, mark, w1, allocs1, &rep);
    DeviceSeamLatency(*seam, &rep);
  }
  return rep;
}

// ---------------------------------------------------------------------
// tenant_mq

constexpr std::uint32_t kTenants = 4;
constexpr std::uint32_t kQueues = 4;
constexpr std::uint32_t kTenantDepth = 16;
/// Measured ops of a weight-w tenant: w * kOpsPerWeight, so the DRR
/// weights 1..4 keep every tenant busy until the end.
constexpr std::uint64_t kOpsPerWeight = 25'000;

Rep RunTenantMq(const RepSpec& spec) {
  Rep rep;
  const std::int64_t t0 = WallNs();
  sim::Simulator s;
  ssd::Config config = ssd::Config::Consumer2012();
  config.seed = spec.seed;
  std::unique_ptr<Seam> ssd_seam;
  std::unique_ptr<Seam> blk_seam;
  if (spec.rec != nullptr) {
    ssd_seam = std::make_unique<Seam>(spec.rec, &s, Layer::kBlk, Layer::kSsd,
                                      "ssd.submit", "ssd.complete");
    blk_seam = std::make_unique<Seam>(spec.rec, &s, Layer::kVbd, Layer::kBlk,
                                      "blk.submit", "blk.complete");
  }
  std::unique_ptr<ssd::Device> dev = MakeDevice(ssd_seam.get(), &s, config);

  blk::BlockLayerConfig bc;
  bc.cpu = blk::CpuCosts::Streamlined();
  bc.nr_queues = kQueues;
  bc.queue_depth = 32;
  bc.tags_per_queue = 32;
  bc.stream_queues = true;
  bc.doorbell_batch = 4;
  bc.doorbell_ns = 300;
  bc.coalesce_depth = 4;
  bc.coalesce_ns = 2 * postblock::kMicrosecond;
  std::unique_ptr<blk::BlockLayer> layer;
  if (blk_seam != nullptr) {
    layer = std::make_unique<Shim<blk::BlockLayer>>(blk_seam.get(), &s,
                                                    dev.get(), bc);
  } else {
    layer = std::make_unique<blk::BlockLayer>(&s, dev.get(), bc);
  }

  // DRR weights 1..4 under a shared depth below the tenants' total
  // depth, each tenant pinned to its own queue pair by stream.
  vbd::BackendConfig vc;
  vc.shared_depth = 32;
  vbd::Backend backend(&s, layer.get(), vc);
  const std::uint64_t capacity = dev->num_blocks() / 8;
  std::vector<vbd::Frontend*> fes;
  std::vector<std::unique_ptr<BlockClient>> clients;
  for (std::uint32_t i = 0; i < kTenants; ++i) {
    vbd::TenantConfig tc;
    tc.name = "t" + std::to_string(i);
    tc.capacity_blocks = capacity;
    tc.qos_weight = i + 1;
    tc.stream = static_cast<std::uint8_t>(i + 1);
    auto fe = backend.CreateTenant(tc);
    if (!fe.ok()) {
      rep.errors.push_back("create tenant: " + fe.status().ToString());
      return rep;
    }
    fes.push_back(*fe);
    clients.push_back(std::make_unique<BlockClient>(
        &s, *fe, capacity, spec.seed * 1000 + i, spec.rec));
  }
  auto run_all = [&] {
    s.RunUntilPredicate([&clients] {
      for (const auto& c : clients) {
        if (!c->done()) return false;
      }
      return true;
    });
  };

  // Setup: every tenant fills its namespace, so no measured read is a
  // thin (never-written) read served from the allocation map.
  for (auto& c : clients) c->Start(capacity, kTenantDepth, 1.0, true, nullptr);
  run_all();
  s.Run();
  for (const auto& c : clients) SetupErrors(*c, &rep);
  rep.setup_s = SecondsSince(t0);
  if (!rep.errors.empty()) return rep;

  const DeviceSnap a = DeviceSnap::Take(dev.get(), s.events_executed());
  const SimTime sim0 = s.Now();
  TraceMark mark;
  if (spec.rec != nullptr) {
    mark = TraceMark::Take(*spec.rec);
    ssd_seam->ClearLatency();
    for (auto& c : clients) c->LogIssues();
  }
  const std::uint64_t allocs0 = AllocCount();
  const std::int64_t w0 = WallNs();
  for (std::uint32_t i = 0; i < kTenants; ++i) {
    clients[i]->Start(kOpsPerWeight * (i + 1), kTenantDepth, 0.10, false,
                      &rep);
    rep.ops += kOpsPerWeight * (i + 1);
  }
  run_all();
  const std::int64_t w1 = WallNs();
  const std::uint64_t allocs1 = AllocCount();
  for (const auto& c : clients) MissingOps(*c, &rep);
  rep.measure_s = static_cast<double>(w1 - w0) / 1e9;
  rep.allocs = allocs1 - allocs0;
  rep.sim_ns = s.Now() - sim0;
  DeviceLayers(a, DeviceSnap::Take(dev.get(), s.events_executed()), &rep);
  rep.layer["blk.cpu_util"] = layer->CpuUtilization();

  if (spec.rec != nullptr) {
    TracedLayers(*spec.rec, mark, w1, allocs1, &rep);
    DeviceSeamLatency(*ssd_seam, &rep);
    // blk wait: sim latency at the block-layer seam minus the device
    // seam, per op (the op id rides IoRequest::span across both).
    // vbd wait: dispatch at the block-layer seam minus the tenant's
    // issue, matched per tenant in FIFO order (the backend admits each
    // tenant's ops in order) and checked by LBA.
    std::vector<SimTime> blk_wait;
    std::vector<SimTime> vbd_wait;
    std::vector<std::size_t> next(kTenants, 0);
    for (std::uint64_t op = mark.first_op; op < blk_seam->max_op(); ++op) {
      const SimTime at_blk = blk_seam->latency_of(op);
      const SimTime at_ssd = ssd_seam->latency_of(op);
      if (at_blk != Seam::kMissing && at_ssd != Seam::kMissing) {
        blk_wait.push_back(at_blk - at_ssd);
      }
      const SimTime dispatched = blk_seam->submit_time_of(op);
      if (dispatched == Seam::kMissing) continue;
      const Lba lba = blk_seam->lba_of(op);
      bool matched = false;
      for (std::uint32_t i = 0; i < kTenants; ++i) {
        const std::uint64_t base = backend.extent_base(fes[i]->id());
        if (lba < base || lba >= base + capacity) continue;
        const auto& log = clients[i]->issues();
        if (next[i] < log.size() && log[next[i]].lba + base == lba) {
          vbd_wait.push_back(dispatched - log[next[i]].at);
          ++next[i];
          matched = true;
        }
        break;
      }
      if (!matched) {
        rep.errors.push_back("vbd wait: op at lba " + std::to_string(lba) +
                             " matches no tenant issue in order");
        break;
      }
    }
    rep.traced["blk.wait_us_p99"] =
        static_cast<double>(Percentile(&blk_wait, 99)) / 1e3;
    rep.traced["vbd.wait_us_p99"] =
        static_cast<double>(Percentile(&vbd_wait, 99)) / 1e3;
  }
  return rep;
}

// ---------------------------------------------------------------------
// db_vision

/// Bulk-loaded keys: a tree larger than the buffer pool (roughly 800
/// pages, scaling bench_crossover's 28k keys in ~220 pages, against 256
/// frames), so Gets miss and checkpoints write back pages scattered
/// over the whole tree.
constexpr std::uint64_t kDbKeys = 100'000;
constexpr std::size_t kDbFrames = 256;
constexpr std::uint64_t kDbOps = 50'000;
constexpr std::uint64_t kDbCheckpointEvery = 100;
constexpr std::uint64_t kDbLoadBatchesPerCheckpoint = 20;

ssd::Config DbDevice(std::uint64_t seed) {
  ssd::Config c = ssd::Config::Small();
  c.ftl = ssd::FtlKind::kVisionAppend;
  c.seed = seed;
  return c;
}

Rep RunDbVision(const RepSpec& spec) {
  Rep rep;
  const std::int64_t t0 = WallNs();
  sim::Simulator s;
  std::unique_ptr<Seam> seam;
  if (spec.rec != nullptr) {
    seam = std::make_unique<Seam>(spec.rec, &s, Layer::kDb, Layer::kSsd,
                                  "ssd.execute", "ssd.complete");
  }
  std::unique_ptr<ssd::Device> dev =
      MakeDevice(seam.get(), &s, DbDevice(spec.seed));
  db::StorageConfig sc;
  sc.wiring = db::Wiring::kVision;
  sc.buffer_frames = kDbFrames;
  db::StorageManager m(&s, dev.get(), sc);

  // One op at a time: start it, run the simulator until it completes.
  bool done = false;
  auto wait = [&] {
    s.RunUntilPredicate([&done] { return done; });
    const bool fired = done;
    done = false;
    return fired;
  };
  Status st;
  auto status_cb = [&](Status r) {
    ScopedSpan span(spec.rec, &s, Layer::kDriver, "driver.complete");
    st = std::move(r);
    done = true;
  };

  m.Bootstrap(status_cb);
  if (!wait() || !st.ok()) {
    rep.errors.push_back("setup: bootstrap: " + st.ToString());
    return rep;
  }
  Rng rng(spec.seed * 7919 + 1);
  std::vector<std::uint64_t> shadow(kDbKeys, 0);  // 0 = absent
  for (std::uint64_t base = 0; base < kDbKeys; base += 100) {
    std::vector<db::WalOp> ops;
    for (std::uint64_t k = base; k < base + 100 && k < kDbKeys; ++k) {
      shadow[k] = rng.Next() | 1;
      ops.push_back({db::WalOp::Kind::kPut, k, shadow[k]});
    }
    m.CommitBatch(std::move(ops), status_cb);
    if (!wait() || !st.ok()) {
      rep.errors.push_back("setup: bulk load: " + st.ToString());
      return rep;
    }
    // No-steal buffer pool: checkpoint before dirty pages fill it.
    if ((base / 100) % kDbLoadBatchesPerCheckpoint ==
            kDbLoadBatchesPerCheckpoint - 1 ||
        base + 100 >= kDbKeys) {
      m.Checkpoint(status_cb);
      if (!wait() || !st.ok()) {
        rep.errors.push_back("setup: checkpoint: " + st.ToString());
        return rep;
      }
    }
  }
  rep.setup_s = SecondsSince(t0);

  // A failed Put/Delete leaves its key's value unknown until the next
  // successful write of it.
  std::vector<bool> unknown(kDbKeys, false);
  const postblock::Counters& bp = m.buffer_pool()->counters();
  const std::uint64_t hits0 = bp.Get("hits");
  const std::uint64_t misses0 = bp.Get("misses") + bp.Get("miss_waits");
  std::uint64_t checkpoints = 0;
  std::int64_t ckpt_wall = 0;
  std::uint64_t got = 0;
  Status get_st;
  auto get_cb = [&](postblock::StatusOr<std::uint64_t> r) {
    ScopedSpan span(spec.rec, &s, Layer::kDriver, "driver.complete");
    get_st = r.status();
    got = r.ok() ? *r : 0;
    done = true;
  };

  rep.ops = kDbOps;
  const DeviceSnap a = DeviceSnap::Take(dev.get(), s.events_executed());
  TraceMark mark;
  if (spec.rec != nullptr) {
    mark = TraceMark::Take(*spec.rec);
    seam->ClearLatency();
  }
  const std::uint64_t seam0 = seam != nullptr ? seam->submitted() : 0;
  const std::uint64_t allocs0 = AllocCount();
  const std::int64_t w0 = WallNs();
  SimTime sim_in_ops = 0;
  for (std::uint64_t i = 0; i < kDbOps; ++i) {
    const std::uint64_t key = rng.Uniform(kDbKeys);
    const std::uint64_t dice = rng.Uniform(100);
    const SimTime start = s.Now();
    if (dice < 50) {
      {
        ScopedSpan span(spec.rec, &s, Layer::kDb, "db.get");
        m.Get(key, get_cb);
      }
      const bool fired = wait();
      rep.latency.push_back(s.Now() - start);
      const bool absent = get_st.IsNotFound() &&
                          get_st.message().rfind("key ", 0) == 0;
      if (!fired) {
        Fail(&rep, "get key " + std::to_string(key) + ": never completed");
      } else if (!get_st.ok() && !absent) {
        Fail(&rep, "get key " + std::to_string(key) + ": " +
                       get_st.ToString());
      } else if (!unknown[key] && (absent ? shadow[key] != 0
                                          : shadow[key] != got)) {
        rep.errors.push_back("get key " + std::to_string(key) +
                             " returned wrong data");
      }
    } else {
      const bool put = dice < 90;
      const std::uint64_t value = rng.Next() | 1;
      {
        ScopedSpan span(spec.rec, &s, Layer::kDb, put ? "db.put" : "db.delete");
        if (put) {
          m.Put(key, value, status_cb);
        } else {
          m.Delete(key, status_cb);
        }
      }
      const bool fired = wait();
      rep.latency.push_back(s.Now() - start);
      if (fired && st.ok()) {
        shadow[key] = put ? value : 0;
        unknown[key] = false;
      } else {
        unknown[key] = true;
        Fail(&rep, std::string(put ? "put" : "delete") + " key " +
                       std::to_string(key) + ": " +
                       (fired ? st.ToString() : "never completed"));
      }
    }
    sim_in_ops += s.Now() - start;
    if (i % kDbCheckpointEvery == kDbCheckpointEvery - 1) {
      const std::int64_t c0 = WallNs();
      {
        ScopedSpan span(spec.rec, &s, Layer::kDb, "db.checkpoint");
        m.Checkpoint(status_cb);
      }
      const bool fired = wait();
      ckpt_wall += WallNs() - c0;
      ++checkpoints;
      if (!fired || !st.ok()) {
        Fail(&rep, "checkpoint " + std::to_string(checkpoints) + ": " +
                       (fired ? st.ToString() : "never completed"));
      }
    }
  }
  const std::int64_t w1 = WallNs();
  const std::uint64_t allocs1 = AllocCount();
  rep.measure_s = static_cast<double>(w1 - w0) / 1e9;
  rep.allocs = allocs1 - allocs0;
  // Client ops run one at a time; checkpoints are not client ops, so
  // the client's sim time is the sum of its ops' latencies.
  rep.sim_ns = sim_in_ops;
  DeviceLayers(a, DeviceSnap::Take(dev.get(), s.events_executed()), &rep);
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t k = 0; k < kDbKeys; ++k) h = Fnv(h, shadow[k]);
  rep.digest = Fnv(h, s.Now());
  const std::uint64_t hits = bp.Get("hits") - hits0;
  const std::uint64_t misses = bp.Get("misses") + bp.Get("miss_waits") -
                               misses0;
  rep.layer["db.bp_hit_rate"] =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0;
  if (spec.rec != nullptr) {
    TracedLayers(*spec.rec, mark, w1, allocs1, &rep);
    DeviceSeamLatency(*seam, &rep);
    rep.traced["db.device_ios_per_op"] =
        PerOp(static_cast<double>(seam->submitted() - seam0), kDbOps);
  }
  rep.wall["db.ckpt_wall_ms"] =
      checkpoints > 0 ? static_cast<double>(ckpt_wall) / 1e6 / checkpoints
                      : 0;
  return rep;
}

// ---------------------------------------------------------------------
// sharded_gc

/// bench_sharded_device's shape (4 channels x 4 LUNs, QD 32, 40% writes
/// over a 70% sequentially filled LBA range), run longer.
constexpr std::uint64_t kShardedIos = 200'000;
constexpr std::uint32_t kShardedDepth = 32;

Rep RunShardedGc(const RepSpec& spec) {
  Rep rep;
  const std::int64_t t0 = WallNs();
  ssd::Config config;
  config.geometry.channels = 4;
  config.geometry.luns_per_channel = 4;
  config.geometry.planes_per_lun = 1;
  config.geometry.blocks_per_plane = 64;
  config.geometry.pages_per_block = 32;
  config.geometry.page_size_bytes = 4096;
  config.seed = spec.seed;
  // The plan, engine and router exactly as ssd::ShardedDeviceSim builds
  // them; the client below replaces its host loop so that every op's
  // latency is recorded and every read checked.
  const ssd::ShardPlan plan =
      ssd::ShardPlan::FromConfig(config, 62 * postblock::kMicrosecond);
  sim::ShardedConfig ec;
  ec.shards = plan.num_shards;
  ec.workers = spec.workers;
  ec.lookahead = plan.Lookahead();
  ec.fingerprint = true;
  sim::ShardedEngine engine(ec);
  ssd::ShardRouter router(&engine, plan);
  ssd::Device dev(&router, config);
  const std::uint64_t lbas = dev.num_blocks() * 7 / 10;
  BlockClient client(router.controller_sim(), &dev, lbas, spec.seed, nullptr);

  // Client ops start before Run() and continue from completions on the
  // controller shard, as the device requires.
  client.Start(lbas, kShardedDepth, 1.0, /*sequential=*/true, nullptr);
  engine.Run();
  SetupErrors(client, &rep);
  rep.setup_s = SecondsSince(t0);
  if (!rep.errors.empty()) return rep;

  rep.ops = kShardedIos;
  const DeviceSnap a = DeviceSnap::Take(&dev, engine.events_executed());
  const std::uint64_t rounds0 = engine.rounds();
  const std::uint64_t msgs0 = engine.messages_delivered();
  const SimTime sim0 = engine.Now();
  const std::uint64_t allocs0 = AllocCount();
  const std::int64_t w0 = WallNs();
  client.Start(kShardedIos, kShardedDepth, 0.40, /*sequential=*/false, &rep);
  engine.Run();
  const std::int64_t w1 = WallNs();
  MissingOps(client, &rep);
  rep.allocs = AllocCount() - allocs0;
  rep.measure_s = static_cast<double>(w1 - w0) / 1e9;
  rep.sim_ns = engine.Now() - sim0;
  DeviceLayers(a, DeviceSnap::Take(&dev, engine.events_executed()), &rep);
  // The committed schedule, identical at every worker count.
  rep.digest = Fnv(rep.digest, engine.Fingerprint());
  const double ops = static_cast<double>(rep.ops);
  const double rounds = static_cast<double>(engine.rounds() - rounds0);
  rep.layer["engine.windows_per_op"] = rounds / ops;
  rep.layer["engine.events_per_window"] =
      rounds > 0 ? static_cast<double>(rep.events) / rounds : 0;
  rep.layer["engine.msgs_per_op"] =
      static_cast<double>(engine.messages_delivered() - msgs0) / ops;
  rep.layer["ssd.read_p99_us"] =
      static_cast<double>(dev.read_latency().P99()) / 1e3;
  rep.layer["ssd.write_p99_us"] =
      static_cast<double>(dev.write_latency().P99()) / 1e3;
  // No host stack and no shims: all of the run is engine and device.
  rep.wall["sim.event_wall_ns_per_op"] = static_cast<double>(w1 - w0) / ops;
  rep.wall["sim.event_allocs_per_op"] = static_cast<double>(rep.allocs) / ops;
  return rep;
}

}  // namespace

SimTime Percentile(std::vector<SimTime>* v, double p) {
  if (v->empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v->size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v->size());
  std::nth_element(v->begin(), v->begin() + (rank - 1), v->end());
  return (*v)[rank - 1];
}

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kAll = {
      {"gc_churn",
       "aged page-mapped SSD, no host stack: FTL GC, flash and the event "
       "core do the work",
       0, &RunGcChurn, -1, -1},
      {"tenant_mq",
       "vbd tenants over the mq block layer on a fresh SSD: host path "
       "cost, GC idle",
       0, &RunTenantMq, kTenants, kQueues},
      {"db_vision",
       "post-block storage manager over an append device: DB, PCM, "
       "HostMap, AppendFtl",
       0, &RunDbVision, -1, -1},
      {"sharded_gc",
       "full SSD on the sharded engine at 2 workers: ShardedEngine and "
       "ShardRouter",
       2, &RunShardedGc, -1, -1},
  };
  return kAll;
}

}  // namespace perfbench
