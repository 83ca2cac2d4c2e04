// bench_parallel — sharded event cores: scaling and determinism.
//
// Runs the 4-channel fig2-class workload (host reads/writes fighting
// per-channel GC) on the sharded engine at workers = 0 (sequential
// reference), 1, 2 and 4, and reports events/sec, per-worker-count
// speedup, and the determinism bit: every worker count must produce a
// combined fingerprint byte-identical to the sequential reference.
//
// Emits BENCH_parallel.json; scripts/check_perf.sh gate 7 enforces the
// determinism bit unconditionally and the >= 1.6x speedup floor at 4
// workers when the machine actually has >= 4 hardware threads (the
// meta stamp records both counts so a scaling number can never be
// misread).

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "obs/engine_profiler.h"
#include "ssd/config.h"
#include "ssd/sharded_backend.h"

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

  double eps() const { return seconds > 0 ? events / seconds : 0; }
};

Config BenchConfig() {
  Config config = Config::Small();
  config.geometry.channels = 4;
  config.geometry.luns_per_channel = 4;
  return config;
}

ShardedRunConfig BenchRun(std::uint32_t workers,
                          std::uint64_t ios_per_channel) {
  ShardedRunConfig run;
  run.workers = workers;
  run.ios_per_channel = ios_per_channel;
  run.queue_depth_per_channel = 16;
  return run;
}

Row RunOnce(std::uint32_t workers, std::uint64_t ios_per_channel,
            obs::EngineProfiler* profiler = nullptr) {
  ShardedRunConfig run = BenchRun(workers, ios_per_channel);
  run.observer = profiler;
  ShardedFlashSim sim(BenchConfig(), run);
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
  return row;
}

int Main() {
  constexpr std::uint64_t kIosPerChannel = 60'000;
  const std::uint32_t hw = std::thread::hardware_concurrency();

  std::printf("bench_parallel: sharded event cores on the 4-channel "
              "fig2-class workload\n");
  std::printf("  %" PRIu64 " IOs/channel, QD 16/channel, "
              "hardware_concurrency=%u\n\n",
              kIosPerChannel, hw);

  const std::vector<std::uint32_t> worker_counts = {0, 1, 2, 4};
  std::vector<Row> rows;
  for (const std::uint32_t w : worker_counts) {
    // Warm-up at a fraction of the size, then the measured run.
    RunOnce(w, kIosPerChannel / 10);
    Row row = RunOnce(w, kIosPerChannel);
    std::printf("  workers=%u: %8.2fM ev/s  (%" PRIu64 " events, %" PRIu64
                " seam msgs, %" PRIu64 " rounds: %" PRIu64 " inline, %" PRIu64
                " pooled, %.3fs)\n",
                w, row.eps() / 1e6, row.events, row.messages, row.rounds,
                row.inline_windows, row.pooled_windows, row.seconds);
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
  // Profiled run: attach obs::EngineProfiler at the highest parallel
  // worker count the bench exercises and hold its fingerprint to the
  // sequential reference — the attached-observer neutrality bit gate 9
  // also enforces — then report where the wall time went per shard.
  obs::EngineProfiler profiler;
  const Row profiled = RunOnce(worker_counts.back(), kIosPerChannel,
                               &profiler);
  const bool profiler_neutral =
      profiled.fingerprint == seq.fingerprint &&
      profiled.events == seq.events;
  std::printf("\nprofiled run (workers=%u, obs::EngineProfiler "
              "attached): %s\n",
              worker_counts.back(),
              profiler_neutral ? "schedule byte-identical"
                               : "FINGERPRINT MISMATCH");
  for (std::size_t s = 0; s < profiler.shard_profiles().size(); ++s) {
    const obs::ShardProfile& p = profiler.shard_profiles()[s];
    std::printf("  shard %zu: util %.1f%%  busy %.1fms idle %.1fms "
                "barrier %.1fms  %" PRIu64 " events\n",
                s, p.Utilization() * 100, p.busy_wall_ns / 1e6,
                p.idle_wall_ns / 1e6, p.barrier_wall_ns / 1e6, p.events);
  }
  const Histogram& slack = profiler.slack_hist();
  std::printf("  lookahead slack: p50=%" PRIu64 "ns p99=%" PRIu64
              "ns max=%" PRIu64 "ns over %" PRIu64 " shard-windows\n",
              slack.P50(), slack.P99(), slack.max(), slack.count());

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

  std::FILE* f = std::fopen("BENCH_parallel.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_parallel.json\n");
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
                 ", \"fingerprint\": \"%016" PRIx64
                 "\", \"sim_end_ns\": %" PRIu64 "},\n",
                 r.workers, r.events, r.eps(), r.seconds, r.messages,
                 r.rounds, r.inline_windows, r.pooled_windows, r.fingerprint,
                 static_cast<std::uint64_t>(r.sim_end_ns));
  }
  std::fprintf(f, "  \"profiler\": {\"neutral\": %s, \"windows\": %" PRIu64
               ", \"shards\": [\n",
               profiler_neutral ? "true" : "false",
               profiler.windows_observed());
  for (std::size_t s = 0; s < profiler.shard_profiles().size(); ++s) {
    const obs::ShardProfile& p = profiler.shard_profiles()[s];
    std::fprintf(f,
                 "    {\"shard\": %zu, \"utilization\": %.4f, "
                 "\"busy_ns\": %" PRIu64 ", \"idle_ns\": %" PRIu64
                 ", \"barrier_ns\": %" PRIu64 ", \"events\": %" PRIu64
                 "}%s\n",
                 s, p.Utilization(), p.busy_wall_ns, p.idle_wall_ns,
                 p.barrier_wall_ns, p.events,
                 s + 1 < profiler.shard_profiles().size() ? "," : "");
  }
  std::fprintf(f,
               "  ], \"lookahead_slack_ns\": {\"count\": %" PRIu64
               ", \"p50\": %" PRIu64 ", \"p99\": %" PRIu64
               ", \"max\": %" PRIu64 "}},\n",
               slack.count(), slack.P50(), slack.P99(), slack.max());
  std::fprintf(f, "  \"determinism_ok\": %s,\n",
               determinism_ok ? "true" : "false");
  std::fprintf(f, "  \"speedup_1w\": %.3f,\n", speedup(rows[1]));
  std::fprintf(f, "  \"speedup_2w\": %.3f,\n", speedup(rows[2]));
  std::fprintf(f, "  \"speedup_4w\": %.3f\n", speedup_4w);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_parallel.json\n");

  // The full git-SHA-stamped profile report rides alongside.
  const Config cfg = BenchConfig();
  const Status st = profiler.WriteReport(
      "BENCH_parallel.profile.json",
      bench::MetaJsonFields(&cfg, worker_counts.back()));
  if (st.ok()) std::printf("wrote BENCH_parallel.profile.json\n");

  return determinism_ok && profiler_neutral ? 0 : 1;
}

}  // namespace
}  // namespace postblock::ssd

int main() { return postblock::ssd::Main(); }
