// bench_sharded_device — the full ssd::Device on the sharded engine.
//
// Runs a closed-loop aged-device workload (sequential precondition,
// then a 40%-write random mix at QD 32, GC relocations crossing the
// controller/channel seam) through the real controller/FTL/channel
// stack on one shard per flash channel plus a controller shard, at
// workers = 0 (sequential reference), 1, 2 and 4 (bench/sharded_sweep.h:
// median of interleaved reps per count). Reports events/sec, speedup,
// and the determinism bit: every worker count must produce a combined
// fingerprint (model observables + committed schedule) byte-identical
// to the sequential reference.
//
// Emits BENCH_sharded_device.json; scripts/check_perf.sh gate 10
// enforces the determinism bit unconditionally and the >= 1.5x
// events/sec floor at 4 workers when the machine actually has >= 4
// hardware threads.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "bench/sharded_sweep.h"
#include "ssd/config.h"
#include "ssd/sharded_device.h"

namespace postblock::ssd {
namespace {

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

ShardedDeviceRun BenchRun(std::uint64_t ios) {
  ShardedDeviceRun run;
  run.queue_depth = 32;
  run.total_ios = ios;
  run.write_percent = 40;
  run.fill_fraction = 0.7;
  run.seed = 0xdead5eed;
  return run;
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

  const bench::Sweep sweep = bench::RunSweep(BenchConfig(), BenchRun(kIos));
  bench::PrintSweepSummary(sweep, hw);
  if (!bench::WriteSweepJson("BENCH_sharded_device.json", BenchConfig(),
                             sweep)) {
    return 1;
  }
  return sweep.determinism_ok ? 0 : 1;
}

}  // namespace
}  // namespace postblock::ssd

int main() { return postblock::ssd::Main(); }
