// bench_parallel — sharded event cores: scaling and determinism.
//
// Runs the 4-channel fig2-class workload (an aged device, 95% full,
// then host reads/writes at QD 64 fighting GC) through the full
// ssd::Device on the sharded engine at workers = 0 (sequential
// reference), 1, 2 and 4 (bench/sharded_sweep.h: median of
// interleaved reps per count), and reports events/sec,
// per-worker-count speedup, and the determinism bit: every worker
// count must produce a combined fingerprint byte-identical to the
// sequential reference. A last run at 4 workers with
// obs::EngineProfiler attached must match too, and reports where the
// wall time went per shard.
//
// Emits BENCH_parallel.json; scripts/check_perf.sh gate 7 enforces the
// determinism bit unconditionally and the >= 1.6x speedup floor at 4
// workers when the machine actually has >= 4 hardware threads (the
// meta stamp records both counts so a scaling number can never be
// misread).

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "bench/sharded_sweep.h"
#include "obs/engine_profiler.h"
#include "ssd/config.h"
#include "ssd/sharded_device.h"

namespace postblock::ssd {
namespace {

Config BenchConfig() {
  Config config = Config::Small();
  config.geometry.channels = 4;
  config.geometry.luns_per_channel = 4;
  return config;
}

ShardedDeviceRun BenchRun(std::uint64_t ios) {
  ShardedDeviceRun run;
  run.queue_depth = 64;  // 16 per channel
  run.total_ios = ios;
  run.write_percent = 25;
  run.fill_fraction = 0.95;  // aged: GC fights the host from the start
  return run;
}

int Main() {
  constexpr std::uint64_t kIos = 240'000;
  const std::uint32_t hw = std::thread::hardware_concurrency();

  std::printf("bench_parallel: sharded event cores, full ssd::Device on "
              "the 4-channel fig2-class workload\n");
  std::printf("  %" PRIu64 " IOs at QD 64 (25%% writes, aged 95%%), "
              "hardware_concurrency=%u\n\n",
              kIos, hw);

  const bench::Sweep sweep = bench::RunSweep(BenchConfig(), BenchRun(kIos));
  const bench::SweepRow& seq = sweep.rows[0];

  // Profiled run: attach obs::EngineProfiler at the highest parallel
  // worker count the bench exercises and hold its fingerprint to the
  // sequential reference — the attached-observer neutrality bit gate 9
  // also enforces — then report where the wall time went per shard.
  obs::EngineProfiler profiler;
  ShardedDeviceRun profiled_run = BenchRun(kIos);
  profiled_run.workers = sweep.rows.back().workers;
  profiled_run.observer = &profiler;
  const bench::SweepRow profiled =
      bench::RunShardedOnce(BenchConfig(), profiled_run);
  const bool profiler_neutral =
      profiled.fingerprint == seq.fingerprint &&
      profiled.events == seq.events;
  std::printf("\nprofiled run (workers=%u, obs::EngineProfiler "
              "attached): %s\n",
              profiled.workers,
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

  bench::PrintSweepSummary(sweep, hw);

  const auto write_profile = [&](std::FILE* f) {
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
  };
  const Config config = BenchConfig();
  if (!bench::WriteSweepJson("BENCH_parallel.json", config, sweep,
                             write_profile)) {
    return 1;
  }

  // The full git-SHA-stamped profile report rides alongside.
  const Status st = profiler.WriteReport(
      "BENCH_parallel.profile.json",
      bench::MetaJsonFields(&config, profiled.workers));
  if (st.ok()) std::printf("wrote BENCH_parallel.profile.json\n");

  return sweep.determinism_ok && profiler_neutral ? 0 : 1;
}

}  // namespace
}  // namespace postblock::ssd

int main() { return postblock::ssd::Main(); }
