// The worker-count sweep shared by the sharded-engine benches
// (bench_parallel for gate 7, bench_sharded_device for gate 10);
// bench_obs reuses its single timed run.
//
// Each bench hands in its own device Config and ShardedDeviceRun; the
// sweep runs that workload through ssd::ShardedDeviceSim at workers =
// 0 (the sequential reference), 1, 2 and 4. One run is a few hundred
// milliseconds, so a single timing per worker count swings with host
// load; each count is instead timed kSweepReps times, interleaved
// 0,1,2,4,0,1,2,4,... so drift hits every count alike, and reported as
// the median with its min and max. Speedups are median over median.
// Every rep's combined fingerprint must equal the workers=0 reference
// (the determinism bit the gates enforce).

#ifndef POSTBLOCK_BENCH_SHARDED_SWEEP_H_
#define POSTBLOCK_BENCH_SHARDED_SWEEP_H_

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <vector>

#include "bench/bench_util.h"
#include "ssd/config.h"
#include "ssd/sharded_device.h"

namespace postblock::bench {

inline constexpr std::uint32_t kSweepWorkers[] = {0, 1, 2, 4};
inline constexpr int kSweepReps = 3;

struct SweepRow {
  std::uint32_t workers = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  std::uint64_t inline_windows = 0;
  std::uint64_t pooled_windows = 0;
  double seconds = 0;  // one run's time; RunSweep's median over reps
  double min_seconds = 0;
  double max_seconds = 0;
  std::uint64_t fingerprint = 0;
  SimTime sim_end_ns = 0;
  double wa = 0;

  double eps() const { return seconds > 0 ? events / seconds : 0; }
};

/// One timed ShardedDeviceSim run (construction excluded).
inline SweepRow RunShardedOnce(const ssd::Config& config,
                               const ssd::ShardedDeviceRun& run) {
  ssd::ShardedDeviceSim sim(config, run);
  const auto t0 = std::chrono::steady_clock::now();
  const SimTime end = sim.Run();
  const auto t1 = std::chrono::steady_clock::now();

  SweepRow row;
  row.workers = run.workers;
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

struct Sweep {
  std::vector<SweepRow> rows;  // rows[i] ran at kSweepWorkers[i]
  bool determinism_ok = true;

  /// Median sequential time over median time at rows[i].
  double Speedup(std::size_t i) const {
    const double seq = rows[0].seconds;
    return seq > 0 && rows[i].seconds > 0 ? seq / rows[i].seconds : 0;
  }
};

/// Runs the interleaved reps, prints one line per worker count (and a
/// line per rep whose fingerprint diverges from the reference).
inline Sweep RunSweep(const ssd::Config& config, ssd::ShardedDeviceRun run) {
  constexpr std::size_t kCounts = std::size(kSweepWorkers);
  std::vector<double> seconds[kCounts];
  Sweep sweep;
  sweep.rows.resize(kCounts);
  for (int rep = 0; rep < kSweepReps; ++rep) {
    for (std::size_t i = 0; i < kCounts; ++i) {
      run.workers = kSweepWorkers[i];
      const SweepRow r = RunShardedOnce(config, run);
      if (rep == 0) sweep.rows[i] = r;
      seconds[i].push_back(r.seconds);
      const SweepRow& ref = sweep.rows[0];
      if (r.fingerprint != ref.fingerprint || r.events != ref.events) {
        std::printf("DETERMINISM MISMATCH at workers=%u: fingerprint "
                    "%016" PRIx64 " vs reference %016" PRIx64 "\n",
                    r.workers, r.fingerprint, ref.fingerprint);
        sweep.determinism_ok = false;
      }
    }
  }
  for (std::size_t i = 0; i < kCounts; ++i) {
    std::vector<double>& s = seconds[i];
    std::sort(s.begin(), s.end());
    SweepRow& row = sweep.rows[i];
    row.seconds = s[s.size() / 2];
    row.min_seconds = s.front();
    row.max_seconds = s.back();
    std::printf("  workers=%u: %8.2fM ev/s  (%" PRIu64 " events, %" PRIu64
                " seam msgs, %" PRIu64 " rounds: %" PRIu64 " inline, %" PRIu64
                " pooled, WA %.2f, %.3fs)\n",
                row.workers, row.eps() / 1e6, row.events, row.messages,
                row.rounds, row.inline_windows, row.pooled_windows, row.wa,
                row.seconds);
  }
  return sweep;
}

/// The determinism bit and the 1/2/4-worker speedups, for stdout.
inline void PrintSweepSummary(const Sweep& sweep, unsigned hw) {
  std::printf("\ndeterminism: %s\n",
              sweep.determinism_ok ? "all worker counts byte-identical"
                                   : "MISMATCH");
  std::printf("speedup vs sequential: 1 worker %.2fx, 2 workers %.2fx\n",
              sweep.Speedup(1), sweep.Speedup(2));
  std::printf("speedup at 4 workers vs sequential: %.2fx%s\n",
              sweep.Speedup(3),
              hw < 4 ? "  (machine has <4 hardware threads; floor not "
                       "meaningful here)"
                     : "");
}

/// Writes the meta stamp, one "workersN" object per row, whatever
/// `extra` adds (each field ending in ",\n"), the determinism bit and
/// the speedups. Returns false if `path` cannot be opened.
inline bool WriteSweepJson(
    const char* path, const ssd::Config& config, const Sweep& sweep,
    const std::function<void(std::FILE*)>& extra = nullptr) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fprintf(f, "{\n");
  WriteJsonMeta(f, &config, /*workers=*/4);
  for (const SweepRow& r : sweep.rows) {
    std::fprintf(f,
                 "  \"workers%u\": {\"events\": %" PRIu64
                 ", \"eps\": %.0f, \"seconds\": %.6f, \"min_seconds\": "
                 "%.6f, \"max_seconds\": %.6f, \"seam_messages\": "
                 "%" PRIu64 ", \"rounds\": %" PRIu64
                 ", \"inline_windows\": %" PRIu64
                 ", \"pooled_windows\": %" PRIu64
                 ", \"write_amplification\": %.4f, \"fingerprint\": "
                 "\"%016" PRIx64 "\", \"sim_end_ns\": %" PRIu64 "},\n",
                 r.workers, r.events, r.eps(), r.seconds, r.min_seconds,
                 r.max_seconds, r.messages, r.rounds, r.inline_windows,
                 r.pooled_windows, r.wa, r.fingerprint,
                 static_cast<std::uint64_t>(r.sim_end_ns));
  }
  if (extra) extra(f);
  std::fprintf(f, "  \"determinism_ok\": %s,\n",
               sweep.determinism_ok ? "true" : "false");
  std::fprintf(f, "  \"speedup_1w\": %.3f,\n", sweep.Speedup(1));
  std::fprintf(f, "  \"speedup_2w\": %.3f,\n", sweep.Speedup(2));
  std::fprintf(f, "  \"speedup_4w\": %.3f\n", sweep.Speedup(3));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return true;
}

}  // namespace postblock::bench

#endif  // POSTBLOCK_BENCH_SHARDED_SWEEP_H_
