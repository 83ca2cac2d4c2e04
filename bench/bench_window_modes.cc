// bench_window_modes — the sharded engine's two window modes side by
// side, and the measurement behind ShardedEngine::kPoolBreakEvenEvents.
//
// Five shards, about 300 ns of work per event, a 1 µs lookahead. The
// workload is a run of stretches: F fat windows (K events on every
// shard in each), then kThinWindows thin ones (one event on shard 0).
// At 2 workers, worker 0 owns shards 0, 2, 4 and worker 1 shards 1, 3,
// so the lighter worker has 2K events in a fat window. The first fat
// window of a stretch predicts from a thin one and runs inline; the
// other F - 1 (the candidates) pool when 2K >= kPoolBreakEvenEvents.
// F = 2 wakes parked helpers for each candidate; F = 8 finds them
// mostly still spinning from the previous one.
//
// Each row reports the wall time per candidate window at workers=2
// minus the workers=0 reference (median over kReps paired runs). Rows
// below the constant run inline and read about 0; rows at or above it
// pool and read the pool's gain (negative) or loss. To re-measure the
// constant, set kPoolBreakEvenEvents to 1 and rebuild: every candidate
// then pools, and the break-even is where a row's cost crosses zero
// (DESIGN.md §4f has the table this produced).
//
// Exits 1 if any run's schedule fingerprint differs from workers=0.
// Writes BENCH_window_modes.json.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "sim/sharded_engine.h"

namespace postblock::sim {
namespace {

constexpr std::uint32_t kShards = 5;
constexpr SimTime kLookahead = 1000;
constexpr int kThinWindows = 20;
constexpr std::uint64_t kEventsPerRun = 300'000;
constexpr int kReps = 5;

// Each shard's events chain through the shard's own sink, so no two
// threads ever touch one and no cache line is shared between shards.
struct alignas(64) Sink {
  std::uint64_t value = 0;
};

// About 300 ns on a 2-3 GHz x86-64 core: a dependent multiply chain,
// close to the cost of one event on the sharded SSD.
void Work(Sink* sink) {
  std::uint64_t x = sink->value;
  for (int i = 0; i < 160; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  sink->value = x;
}

struct Run {
  double seconds = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t inline_windows = 0;
  std::uint64_t pooled_windows = 0;
};

Run RunOnce(std::uint32_t workers, int fat, std::uint64_t k,
            int stretches) {
  ShardedConfig config;
  config.shards = kShards;
  config.workers = workers;
  config.lookahead = kLookahead;
  std::vector<Sink> sinks(kShards);
  ShardedEngine engine(config);
  // A fat window f of a stretch spans [base + f µs, base + f µs + 999];
  // thin windows follow 10 µs apart, each its own window.
  const SimTime stretch_ns = kLookahead * static_cast<SimTime>(fat) +
                             10'000 * static_cast<SimTime>(kThinWindows + 1);
  for (int p = 0; p < stretches; ++p) {
    const SimTime base = stretch_ns * static_cast<SimTime>(p);
    for (int f = 0; f < fat; ++f) {
      for (std::uint32_t s = 0; s < kShards; ++s) {
        for (std::uint64_t i = 0; i < k; ++i) {
          engine.shard(s)->ScheduleAt(
              base + kLookahead * static_cast<SimTime>(f) +
                  (i * (kLookahead - 1)) / k,
              [sink = &sinks[s]] { Work(sink); });
        }
      }
    }
    for (int t = 1; t <= kThinWindows; ++t) {
      engine.shard(0)->ScheduleAt(
          base + kLookahead * static_cast<SimTime>(fat) +
              10'000 * static_cast<SimTime>(t),
          [sink = &sinks[0]] { Work(sink); });
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  engine.Run();
  const auto t1 = std::chrono::steady_clock::now();
  Run run;
  run.seconds = std::chrono::duration<double>(t1 - t0).count();
  run.fingerprint = engine.Fingerprint();
  run.inline_windows = engine.inline_windows();
  run.pooled_windows = engine.pooled_windows();
  return run;
}

struct Row {
  int fat = 0;
  std::uint64_t k = 0;
  int stretches = 0;
  std::uint64_t candidates = 0;
  Run pooled_run;  // the last workers=2 run (window counts)
  double seq_s = 0;
  double par_s = 0;
  double cost_us = 0;  // per candidate window, workers=2 - workers=0
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int Main() {
  std::printf("bench_window_modes: inline vs pooled windows, %u shards, "
              "~300 ns/event, kPoolBreakEvenEvents=%" PRIu64
              ", hardware_concurrency=%u\n",
              kShards, ShardedEngine::kPoolBreakEvenEvents,
              std::thread::hardware_concurrency());
  std::printf("  cost = wall per candidate window at workers=2 minus "
              "workers=0 (median of %d pairs)\n\n",
              kReps);

  bool determinism_ok = true;
  std::vector<Row> rows;
  for (const int fat : {2, 8}) {
    for (const std::uint64_t k : {4, 8, 16, 32, 64, 128}) {
      Row row;
      row.fat = fat;
      row.k = k;
      const std::uint64_t per_stretch =
          static_cast<std::uint64_t>(fat) * kShards * k + kThinWindows;
      row.stretches = static_cast<int>(kEventsPerRun / per_stretch);
      row.candidates =
          static_cast<std::uint64_t>(row.stretches) * (fat - 1);
      std::vector<double> seq, par, diff;
      for (int r = 0; r < kReps; ++r) {
        const Run s = RunOnce(0, fat, k, row.stretches);
        const Run p = RunOnce(2, fat, k, row.stretches);
        if (p.fingerprint != s.fingerprint) determinism_ok = false;
        seq.push_back(s.seconds);
        par.push_back(p.seconds);
        diff.push_back(p.seconds - s.seconds);
        row.pooled_run = p;
      }
      row.seq_s = Median(seq);
      row.par_s = Median(par);
      row.cost_us = Median(diff) / static_cast<double>(row.candidates) * 1e6;
      std::printf("  F=%d K=%3" PRIu64 " (lighter worker %3" PRIu64
                  " events): %6" PRIu64 " candidates, %6" PRIu64
                  " pooled, %7" PRIu64 " inline  seq %.3fs  w2 %.3fs  "
                  "cost %+7.2f us\n",
                  fat, k, 2 * k, row.candidates,
                  row.pooled_run.pooled_windows,
                  row.pooled_run.inline_windows, row.seq_s, row.par_s,
                  row.cost_us);
      rows.push_back(row);
    }
  }
  std::printf("\ndeterminism: %s\n",
              determinism_ok ? "workers=2 byte-identical to workers=0"
                             : "MISMATCH");

  std::FILE* f = std::fopen("BENCH_window_modes.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_window_modes.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  bench::WriteJsonMeta(f, nullptr, /*workers=*/2);
  std::fprintf(f, "  \"pool_break_even_events\": %" PRIu64 ",\n",
               ShardedEngine::kPoolBreakEvenEvents);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"fat_windows\": %d, \"events_per_shard\": %" PRIu64
                 ", \"lighter_worker_events\": %" PRIu64
                 ", \"candidates\": %" PRIu64 ", \"pooled_windows\": %" PRIu64
                 ", \"inline_windows\": %" PRIu64
                 ", \"seq_s\": %.6f, \"w2_s\": %.6f"
                 ", \"cost_us_per_candidate\": %.3f}%s\n",
                 r.fat, r.k, 2 * r.k, r.candidates,
                 r.pooled_run.pooled_windows, r.pooled_run.inline_windows,
                 r.seq_s, r.par_s, r.cost_us,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"determinism_ok\": %s\n}\n",
               determinism_ok ? "true" : "false");
  std::fclose(f);
  return determinism_ok ? 0 : 1;
}

}  // namespace
}  // namespace postblock::sim

int main() { return postblock::sim::Main(); }
