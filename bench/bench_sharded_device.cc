// bench_sharded_device — the full ssd::Device on the sharded engine.
//
// Runs a closed-loop aged-device workload (sequential precondition,
// then a 40%-write random mix at QD 32, GC relocations crossing the
// controller/channel seam) through the real controller/FTL/channel
// stack on one shard per flash channel plus a controller shard, at
// workers = 0 (sequential reference), 1, 2 and 4. Reports events/sec,
// speedup, and the determinism bit: every worker count must produce a
// combined fingerprint (model observables + committed schedule)
// byte-identical to the sequential reference.
//
// Emits BENCH_sharded_device.json; scripts/check_perf.sh gate 10
// enforces the determinism bit unconditionally and the >= 1.5x
// events/sec floor at 4 workers when the machine actually has >= 4
// hardware threads.

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "ssd/config.h"
#include "ssd/sharded_device.h"

namespace postblock::ssd {
namespace {

struct Row {
  std::uint32_t workers = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  std::uint64_t inline_windows = 0;
  std::uint64_t pooled_windows = 0;
  double seconds = 0;
  std::uint64_t fingerprint = 0;
  SimTime sim_end_ns = 0;
  double wa = 0;

  double eps() const { return seconds > 0 ? events / seconds : 0; }
};

Config BenchConfig() {
  Config config;
  config.geometry.channels = 4;
  config.geometry.luns_per_channel = 4;
  config.geometry.planes_per_lun = 1;
  config.geometry.blocks_per_plane = 64;
  config.geometry.pages_per_block = 32;
  config.geometry.page_size_bytes = 4096;
  return config;
}

ShardedDeviceRun BenchRun(std::uint32_t workers, std::uint64_t ios) {
  ShardedDeviceRun run;
  run.workers = workers;
  run.queue_depth = 32;
  run.total_ios = ios;
  run.write_percent = 40;
  run.fill_fraction = 0.7;
  run.seed = 0xdead5eed;
  return run;
}

Row RunOnce(std::uint32_t workers, std::uint64_t ios) {
  ShardedDeviceSim sim(BenchConfig(), BenchRun(workers, ios));
  const auto t0 = std::chrono::steady_clock::now();
  const SimTime end = sim.Run();
  const auto t1 = std::chrono::steady_clock::now();

  Row row;
  row.workers = workers;
  row.events = sim.engine()->events_executed();
  row.messages = sim.engine()->messages_delivered();
  row.rounds = sim.engine()->rounds();
  row.inline_windows = sim.engine()->inline_windows();
  row.pooled_windows = sim.engine()->pooled_windows();
  row.seconds = std::chrono::duration<double>(t1 - t0).count();
  row.fingerprint = sim.CombinedFingerprint();
  row.sim_end_ns = end;
  row.wa = sim.device()->WriteAmplification();
  return row;
}

int Main() {
  constexpr std::uint64_t kIos = 120'000;
  const std::uint32_t hw = std::thread::hardware_concurrency();

  std::printf("bench_sharded_device: full ssd::Device on the sharded "
              "engine\n");
  std::printf("  4 channels + controller shard, %" PRIu64
              " IOs at QD 32 (40%% writes, aged 70%%), "
              "hardware_concurrency=%u\n\n",
              kIos, hw);

  const std::vector<std::uint32_t> worker_counts = {0, 1, 2, 4};
  std::vector<Row> rows;
  for (const std::uint32_t w : worker_counts) {
    // Warm-up at a fraction of the size, then the measured run.
    RunOnce(w, kIos / 10);
    Row row = RunOnce(w, kIos);
    std::printf("  workers=%u: %8.2fM ev/s  (%" PRIu64 " events, %" PRIu64
                " seam msgs, %" PRIu64 " rounds: %" PRIu64 " inline, %" PRIu64
                " pooled, WA %.2f, %.3fs)\n",
                w, row.eps() / 1e6, row.events, row.messages, row.rounds,
                row.inline_windows, row.pooled_windows, row.wa, row.seconds);
    rows.push_back(row);
  }

  const Row& seq = rows[0];
  bool determinism_ok = true;
  for (const Row& r : rows) {
    if (r.fingerprint != seq.fingerprint || r.events != seq.events) {
      std::printf("DETERMINISM MISMATCH at workers=%u: fingerprint "
                  "%016" PRIx64 " vs reference %016" PRIx64 "\n",
                  r.workers, r.fingerprint, seq.fingerprint);
      determinism_ok = false;
    }
  }

  // rows[i] ran at worker_counts[i]: speedup at 1, 2 and 4 workers.
  const auto speedup = [&seq](const Row& r) {
    return seq.seconds > 0 && r.seconds > 0 ? seq.seconds / r.seconds : 0;
  };
  const double speedup_4w = speedup(rows[3]);
  std::printf("\ndeterminism: %s\n",
              determinism_ok ? "all worker counts byte-identical"
                             : "MISMATCH");
  std::printf("speedup vs sequential: 1 worker %.2fx, 2 workers %.2fx\n",
              speedup(rows[1]), speedup(rows[2]));
  std::printf("speedup at 4 workers vs sequential: %.2fx%s\n", speedup_4w,
              hw < 4 ? "  (machine has <4 hardware threads; floor not "
                       "meaningful here)"
                     : "");

  std::FILE* f = std::fopen("BENCH_sharded_device.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_sharded_device.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  const Config config = BenchConfig();
  bench::WriteJsonMeta(f, &config, /*workers=*/4);
  for (const Row& r : rows) {
    std::fprintf(f,
                 "  \"workers%u\": {\"events\": %" PRIu64
                 ", \"eps\": %.0f, \"seconds\": %.6f, \"seam_messages\": "
                 "%" PRIu64 ", \"rounds\": %" PRIu64
                 ", \"inline_windows\": %" PRIu64
                 ", \"pooled_windows\": %" PRIu64
                 ", \"write_amplification\": %.4f, \"fingerprint\": "
                 "\"%016" PRIx64 "\", \"sim_end_ns\": %" PRIu64 "},\n",
                 r.workers, r.events, r.eps(), r.seconds, r.messages,
                 r.rounds, r.inline_windows, r.pooled_windows, r.wa,
                 r.fingerprint,
                 static_cast<std::uint64_t>(r.sim_end_ns));
  }
  std::fprintf(f, "  \"determinism_ok\": %s,\n",
               determinism_ok ? "true" : "false");
  std::fprintf(f, "  \"speedup_1w\": %.3f,\n", speedup(rows[1]));
  std::fprintf(f, "  \"speedup_2w\": %.3f,\n", speedup(rows[2]));
  std::fprintf(f, "  \"speedup_4w\": %.3f\n", speedup_4w);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_sharded_device.json\n");
  return determinism_ok ? 0 : 1;
}

}  // namespace
}  // namespace postblock::ssd

int main() { return postblock::ssd::Main(); }
