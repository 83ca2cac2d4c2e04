// E22 — the Section 3 crossover study: the same B+-tree/WAL database
// workload over the two ends of the paper's argument.
//
//   classic — block interface all the way down: WAL records padded to
//     whole log blocks on a page-mapped SSD (device owns an 8 B per
//     logical page L2P, GC hidden), checkpoints as plain page writes.
//   vision  — post-block: WAL appends to PCM over the memory bus, data
//     pages as epoch-tagged nameless writes to an append-mode device
//     (host owns the L2P, sized by live pages; the device keeps
//     per-block counters only and never garbage-collects on its own).
//
// Three axes, one table: commit latency, write amplification, and
// mapping-table DRAM (device + host). Emits BENCH_crossover.json for
// scripts/check_perf.sh gate 11:
//   - "determinism_ok": each wiring digests identically across two
//     runs (the post-block stack honors the schedule contract);
//   - vision write amplification must undercut classic on this
//     churn-heavy workload (the de-indirection claim, measured);
//   - the vision side keeps its names straight: no device move reported
//     for a name the host no longer holds ("stale_migrations") and no
//     read of a stale name ("stale_name_reads");
//   - the device-side L2P must shrink to per-block counters while both
//     sides report their full mapping DRAM (device + host), so the
//     footprint argument is a number, not an assertion. (On this
//     deliberately tiny, deliberately full device the *total* DRAM is
//     a wash — the host map costs ~16 B per live page vs 8 B per
//     logical page — but the host half scales with live data and can
//     be paged; the device half is pinned DRAM sized by capacity.)

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "db/storage_manager.h"
#include "sim/simulator.h"
#include "ssd/device.h"

namespace postblock {
namespace {

// Sized so the block-interface side actually pays for its hidden GC: a
// bulk-loaded tree of ~220 pages plus the 64-block WAL region keeps
// the 512-page device at ~65% true utilization, so after the churn
// phase wraps the flash several times over, classic GC victims carry
// live B+-tree pages that must be relocated. The vision side's churn is
// identical — but liveness is host-declared (retire + free), so blocks
// die mostly whole and the append device's only relocations are the
// cooperative migrations it reports to the host.
constexpr std::uint64_t kBulkKeys = 28000;
constexpr int kBulkBatch = 100;
constexpr int kCommits = 3000;
// Short enough that a checkpoint's transient double-occupancy (every
// old copy stays live-named until the meta page commits the epoch)
// fits the small device on the vision side.
constexpr int kCheckpointEvery = 60;

ssd::Config CrossoverSsd(bool vision) {
  ssd::Config c = ssd::Config::Small();
  c.geometry.blocks_per_plane = 8;  // 512 pages: churn must wrap it
  if (vision) c.ftl = ssd::FtlKind::kVisionAppend;
  return c;
}

struct WiringResult {
  double commit_mean_ns = 0;
  std::uint64_t commit_p99_ns = 0;
  double wa = 0;
  std::uint64_t device_map_bytes = 0;
  std::uint64_t host_map_bytes = 0;
  std::uint64_t sim_end_ns = 0;
  // Name hygiene of the post-block stack (0 on the classic side): moves
  // the device reported for names the host no longer held, reads of
  // stale names, and migration copies dropped because the host freed
  // the page while it was being copied.
  std::uint64_t stale_migrations = 0;
  std::uint64_t stale_name_reads = 0;
  std::uint64_t migrate_copies_dropped = 0;
  std::string digest;
};

WiringResult RunWiring(db::Wiring wiring) {
  const bool vision = wiring == db::Wiring::kVision;
  sim::Simulator sim;
  ssd::Device device(&sim, CrossoverSsd(vision));
  db::StorageConfig cfg;
  cfg.wiring = wiring;
  cfg.buffer_frames = 256;
  db::StorageManager manager(&sim, &device, cfg);
  auto sync = [&](auto&& start) {
    bool fired = false;
    Status out = Status::Internal("pending");
    start([&](Status st) {
      out = std::move(st);
      fired = true;
    });
    if (!sim.RunUntilPredicate([&] { return fired; }) || !out.ok()) {
      std::fprintf(stderr, "bench_crossover: op failed: %s\n",
                   out.ToString().c_str());
      std::exit(1);
    }
  };
  sync([&](db::StorageManager::StatusCb cb) {
    manager.Bootstrap(std::move(cb));
  });

  // Bulk load: one WAL record per kBulkBatch keys, then a checkpoint
  // to put the whole tree on flash.
  Rng load_rng(17);
  for (std::uint64_t base = 0; base < kBulkKeys; base += kBulkBatch) {
    std::vector<db::WalOp> ops;
    ops.reserve(kBulkBatch);
    for (int j = 0; j < kBulkBatch; ++j) {
      ops.push_back({db::WalOp::Kind::kPut, base + j, load_rng.Next() | 1});
    }
    sync([&](db::StorageManager::StatusCb cb) {
      manager.CommitBatch(std::move(ops), std::move(cb));
    });
  }
  sync([&](db::StorageManager::StatusCb cb) {
    manager.Checkpoint(std::move(cb));
  });

  // Overwrite-heavy transactional churn: the WAL absorbs every commit
  // (padded log blocks on classic, PCM bytes on vision) and the
  // checkpoints repeatedly replace B+-tree pages scattered across the
  // whole key space.
  Rng rng(33);
  for (int i = 0; i < kCommits; ++i) {
    const std::uint64_t k = rng.Uniform(kBulkKeys);
    if (rng.Bernoulli(0.15)) {
      sync([&](db::StorageManager::StatusCb cb) {
        manager.Delete(k, std::move(cb));
      });
    } else {
      const std::uint64_t v = rng.Next() | 1;
      sync([&](db::StorageManager::StatusCb cb) {
        manager.Put(k, v, std::move(cb));
      });
    }
    if (i % kCheckpointEvery == kCheckpointEvery - 1) {
      sync([&](db::StorageManager::StatusCb cb) {
        manager.Checkpoint(std::move(cb));
      });
    }
  }

  WiringResult r;
  r.commit_mean_ns = manager.commit_latency().Mean();
  r.commit_p99_ns = manager.commit_latency().P99();
  r.wa = device.ftl()->WriteAmplification();
  r.device_map_bytes = device.Caps().mapping_table_bytes;
  r.host_map_bytes =
      manager.host_map() != nullptr ? manager.host_map()->MappingBytes() : 0;
  r.sim_end_ns = sim.Now();
  if (manager.host_map() != nullptr) {
    r.stale_migrations =
        manager.host_map()->counters().Get("stale_migrations");
  }
  if (device.append_ftl() != nullptr) {
    const Counters& ftl = device.append_ftl()->counters();
    r.stale_name_reads = ftl.Get("stale_name_reads");
    r.migrate_copies_dropped = ftl.Get("migrate_copies_dropped");
  }
  std::ostringstream digest;
  digest << sim.Now() << ':' << manager.counters().Get("txns") << ':'
         << manager.counters().Get("checkpoints") << ':' << r.wa << ':'
         << device.counters().Get("requests") << ':'
         << device.counters().Get("nameless_writes") << ':'
         << device.counters().Get("nameless_frees") << ':'
         << r.host_map_bytes << ':' << r.commit_mean_ns;
  r.digest = digest.str();
  return r;
}

}  // namespace
}  // namespace postblock

int main() {
  using namespace postblock;
  bench::Banner(
      "E22", "the Section 3 crossover study",
      "killing the block interface wins on every axis at once: commit "
      "latency (PCM sync path), write amplification (host-declared "
      "liveness, no hidden GC) and mapping DRAM (one map, sized by "
      "live pages, instead of a redundant device L2P over the whole "
      "logical space)");

  // Run-twice determinism per wiring: the crossover numbers are
  // schedule observables, so they must reproduce bit for bit.
  const WiringResult classic = RunWiring(db::Wiring::kClassic);
  const WiringResult classic2 = RunWiring(db::Wiring::kClassic);
  const WiringResult vision = RunWiring(db::Wiring::kVision);
  const WiringResult vision2 = RunWiring(db::Wiring::kVision);
  const bool deterministic =
      classic.digest == classic2.digest && vision.digest == vision2.digest;

  const std::uint64_t classic_map =
      classic.device_map_bytes + classic.host_map_bytes;
  const std::uint64_t vision_map =
      vision.device_map_bytes + vision.host_map_bytes;

  Table table({"metric", "classic (block)", "vision (post-block)"});
  table.AddRow({"commit latency mean", Table::Time(static_cast<std::uint64_t>(
                                           classic.commit_mean_ns)),
                Table::Time(static_cast<std::uint64_t>(
                    vision.commit_mean_ns))});
  table.AddRow({"commit latency p99", Table::Time(classic.commit_p99_ns),
                Table::Time(vision.commit_p99_ns)});
  table.AddRow({"write amplification", Table::Num(classic.wa, 3),
                Table::Num(vision.wa, 3)});
  table.AddRow({"device map DRAM (B)", Table::Int(classic.device_map_bytes),
                Table::Int(vision.device_map_bytes)});
  table.AddRow({"host map DRAM (B)", Table::Int(classic.host_map_bytes),
                Table::Int(vision.host_map_bytes)});
  table.AddRow({"total map DRAM (B)", Table::Int(classic_map),
                Table::Int(vision_map)});
  table.AddRow({"run-twice digest", classic.digest == classic2.digest
                                        ? "identical"
                                        : "DIVERGED",
                vision.digest == vision2.digest ? "identical" : "DIVERGED"});
  table.Print();

  const double speedup =
      vision.commit_mean_ns > 0 ? classic.commit_mean_ns / vision.commit_mean_ns
                                : 0;
  const double device_map_shrink =
      vision.device_map_bytes > 0
          ? static_cast<double>(classic.device_map_bytes) /
                static_cast<double>(vision.device_map_bytes)
          : 0;
  std::printf(
      "\nshape check: vision commits %.0fx faster, WA %.3f vs %.3f, "
      "device L2P DRAM %.1fx smaller (total map DRAM %llu B vs %llu B).\n",
      speedup, vision.wa, classic.wa, device_map_shrink,
      static_cast<unsigned long long>(classic_map),
      static_cast<unsigned long long>(vision_map));

  std::FILE* f = std::fopen("BENCH_crossover.json", "w");
  if (f != nullptr) {
    const ssd::Config shape = CrossoverSsd(false);
    std::fprintf(f, "{\n");
    bench::WriteJsonMeta(f, &shape);
    std::fprintf(f, "  \"determinism_ok\": %s,\n",
                 deterministic ? "true" : "false");
    auto wiring_json = [&](const char* name, const WiringResult& r) {
      std::fprintf(f,
                   "  \"%s\": {\"commit_mean_ns\": %.1f, "
                   "\"commit_p99_ns\": %llu, "
                   "\"write_amplification\": %.4f, "
                   "\"device_map_bytes\": %llu, \"host_map_bytes\": %llu, "
                   "\"sim_end_ns\": %llu, \"stale_migrations\": %llu, "
                   "\"stale_name_reads\": %llu, "
                   "\"migrate_copies_dropped\": %llu},\n",
                   name, r.commit_mean_ns,
                   static_cast<unsigned long long>(r.commit_p99_ns), r.wa,
                   static_cast<unsigned long long>(r.device_map_bytes),
                   static_cast<unsigned long long>(r.host_map_bytes),
                   static_cast<unsigned long long>(r.sim_end_ns),
                   static_cast<unsigned long long>(r.stale_migrations),
                   static_cast<unsigned long long>(r.stale_name_reads),
                   static_cast<unsigned long long>(r.migrate_copies_dropped));
    };
    wiring_json("classic", classic);
    wiring_json("vision", vision);
    std::fprintf(f,
                 "  \"crossover\": {\"commit_speedup\": %.2f, "
                 "\"device_map_shrink\": %.3f, "
                 "\"classic_total_map_bytes\": %llu, "
                 "\"vision_total_map_bytes\": %llu}\n",
                 speedup, device_map_shrink,
                 static_cast<unsigned long long>(classic_map),
                 static_cast<unsigned long long>(vision_map));
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_crossover.json\n");
  }
  return 0;
}
