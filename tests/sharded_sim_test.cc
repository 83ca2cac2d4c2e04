// ShardedEngine: conservative-lookahead sharded event cores.
//
// The load-bearing property is byte-identical committed schedules at
// every worker count (including the workers=0 sequential reference) —
// held here by exact-timestamp checks, delivery-order checks, and
// randomized cross-thread determinism property tests that compare
// schedule fingerprints across 1/2/4/8 workers and run-twice repeats —
// one of them on a workload that runs both inline and pooled windows.

#include "sim/sharded_engine.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "flash/rng_domain.h"
#include "sim/simulator.h"

namespace postblock::sim {
namespace {

std::uint64_t Fold(std::uint64_t h, std::uint64_t v) {
  std::uint64_t x = v ^ (h + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  return x ^ (x >> 31);
}

TEST(MinPendingTimeTest, PureReadDoesNotCommitWheel) {
  Simulator sim;
  sim.Schedule(5, [] {});
  sim.Schedule(70, [] {});                  // next level-0 block
  sim.Schedule(1'000'000'000, [] {});       // deep wheel level
  EXPECT_EQ(sim.MinPendingTime(), 5u);
  // A probe must not drag the push clamp forward: an event scheduled
  // below the probed minimum keeps its exact timestamp and fires first.
  std::vector<SimTime> fired;
  sim.ScheduleAt(3, [&] { fired.push_back(sim.Now()); });
  EXPECT_EQ(sim.MinPendingTime(), 3u);
  sim.Run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 3u);
}

TEST(MinPendingTimeTest, OverflowAndCoarseLevels) {
  Simulator sim;
  const SimTime far = SimTime{90} * 1000 * 1000 * 1000;  // past horizon
  sim.Schedule(far, [] {});
  EXPECT_EQ(sim.MinPendingTime(), far);
  sim.Schedule(4096 + 17, [] {});  // level >= 1: slot-scan path
  EXPECT_EQ(sim.MinPendingTime(), 4096u + 17u);
}

TEST(ShardedEngineTest, SingleShardMatchesPlainSimulator) {
  // One shard, workers=0: the engine must execute the exact schedule a
  // plain Simulator would — same event count, same final time, same
  // schedule fingerprint.
  const auto drive = [](Simulator* sim) {
    for (int k = 0; k < 4; ++k) {
      auto chain = std::make_shared<std::function<void(int)>>();
      *chain = [sim, chain, k](int left) {
        if (left == 0) {
          *chain = nullptr;
          return;
        }
        sim->Schedule(10 + k, [chain, left] { (*chain)(left - 1); });
      };
      sim->Schedule(k, [chain] { (*chain)(50); });
    }
  };

  Simulator plain;
  plain.EnableFingerprint();
  drive(&plain);
  const SimTime plain_end = plain.Run();

  ShardedConfig config;
  config.shards = 1;
  config.workers = 0;
  config.lookahead = 7;  // odd window width: boundaries hit mid-chain
  ShardedEngine engine(config);
  drive(engine.shard(0));
  engine.Run();

  EXPECT_EQ(engine.shard(0)->events_executed(), plain.events_executed());
  // The executed schedule is identical (the fingerprint folds every
  // event's timestamp); the final clock parks at the committed window
  // boundary, at most lookahead-1 past the last event.
  EXPECT_EQ(engine.shard(0)->fingerprint(), plain.fingerprint());
  EXPECT_GE(engine.shard(0)->Now(), plain_end);
  EXPECT_LT(engine.shard(0)->Now(), plain_end + config.lookahead);
}

TEST(ShardedEngineTest, CrossShardMergeOrdersByTimestampShardSeq) {
  ShardedConfig config;
  config.shards = 4;
  config.workers = 0;
  config.lookahead = 100;
  ShardedEngine engine(config);

  std::vector<std::uint32_t> arrivals;
  // Setup posts in scrambled sender order, all to shard 3 at the same
  // timestamp; the deterministic merge must deliver by (when, from,
  // seq), so execution order is sender 0, 1, 1, 2 (seq breaks the tie
  // between shard 1's two messages in post order).
  engine.Post(2, 3, 500, [&] { arrivals.push_back(2); });
  engine.Post(1, 3, 500, [&] { arrivals.push_back(10); });
  engine.Post(0, 3, 500, [&] { arrivals.push_back(0); });
  engine.Post(1, 3, 500, [&] { arrivals.push_back(11); });
  engine.Run();

  ASSERT_EQ(arrivals.size(), 4u);
  EXPECT_EQ(arrivals[0], 0u);
  EXPECT_EQ(arrivals[1], 10u);
  EXPECT_EQ(arrivals[2], 11u);
  EXPECT_EQ(arrivals[3], 2u);
}

TEST(ShardedEngineTest, DeliveryFiresEqualTimestampsInSenderThenPostOrder) {
  // Three senders each post to shard 3 from inside a window, with their
  // timestamps out of order within each outbox. Delivery pushes outbox
  // by outbox with no sort; the destination must still fire everything
  // in (when, from, seq) order, at every worker count.
  struct Arrival {
    SimTime when;
    std::uint32_t from;
    std::uint32_t seq;
    bool operator==(const Arrival&) const = default;
  };
  const std::vector<std::vector<SimTime>> posts = {
      {700, 500, 700, 500, 600},  // sender 0
      {500, 700, 500},            // sender 1
      {600, 700, 500, 500},       // sender 2
  };
  std::vector<Arrival> want;
  for (const SimTime when : {500, 600, 700}) {
    for (std::uint32_t from = 0; from < posts.size(); ++from) {
      for (std::uint32_t seq = 0; seq < posts[from].size(); ++seq) {
        if (posts[from][seq] == when) want.push_back({when, from, seq});
      }
    }
  }

  for (const std::uint32_t workers : {0u, 2u, 4u}) {
    ShardedConfig config;
    config.shards = 4;
    config.workers = workers;
    config.lookahead = 100;
    ShardedEngine engine(config);
    std::vector<Arrival> got;
    for (std::uint32_t from = 0; from < posts.size(); ++from) {
      engine.shard(from)->Schedule(100 + from, [&, from] {
        for (std::uint32_t seq = 0; seq < posts[from].size(); ++seq) {
          const SimTime when = posts[from][seq];
          engine.Post(from, 3, when, [&got, &engine, when, from, seq] {
            EXPECT_EQ(engine.shard(3)->Now(), when);
            got.push_back({when, from, seq});
          });
        }
      });
    }
    engine.Run();
    EXPECT_EQ(got, want) << "workers=" << workers;
    EXPECT_EQ(engine.messages_delivered(), want.size());
  }
}

TEST(ShardedEngineTest, MessagesKeepExactTimestamps) {
  ShardedConfig config;
  config.shards = 2;
  config.workers = 0;
  config.lookahead = 50;
  ShardedEngine engine(config);

  std::vector<SimTime> at;
  // Shard 1 holds a far-future local event; the cross-shard message
  // must still fire at its exact timestamp, not get clamped onto the
  // far event (the MinPendingTime / bounded-peek contract).
  engine.shard(1)->Schedule(100'000, [&] {
    at.push_back(engine.shard(1)->Now());
  });
  engine.shard(0)->Schedule(100, [&, this_engine = &engine] {
    this_engine->Post(0, 1, 100 + 50 + 3, [&, this_engine] {
      at.push_back(this_engine->shard(1)->Now());
    });
  });
  engine.Run();

  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], 153u);
  EXPECT_EQ(at[1], 100'000u);
}

TEST(ShardedEngineTest, RunUntilLeavesLaterWorkQueued) {
  ShardedConfig config;
  config.shards = 2;
  config.workers = 0;
  config.lookahead = 10;
  ShardedEngine engine(config);

  int early = 0;
  int late = 0;
  engine.shard(0)->Schedule(50, [&] { ++early; });
  engine.shard(1)->Schedule(900, [&] { ++late; });
  engine.RunUntil(100);
  EXPECT_EQ(early, 1);
  EXPECT_EQ(late, 0);
  EXPECT_EQ(engine.Now(), 100u);
  EXPECT_EQ(engine.shard(1)->Now(), 100u);
  engine.Run();
  EXPECT_EQ(late, 1);
}

// --- The randomized cross-thread determinism property ------------------

/// A random sharded workload: each shard runs a self-rescheduling chain
/// with per-shard-domain random deltas; a quarter of events post a
/// payload to a random other shard at now + lookahead + delta. Every
/// observable (per-shard execution hash, payload fold, event counts) is
/// folded into one digest alongside the engine fingerprints.
std::uint64_t RunRandomWorld(std::uint32_t workers, std::uint64_t seed) {
  constexpr std::uint32_t kShards = 5;
  constexpr SimTime kLookahead = 64;

  ShardedConfig config;
  config.shards = kShards;
  config.workers = workers;
  config.lookahead = kLookahead;
  ShardedEngine engine(config);

  struct ShardWorld {
    Rng rng{0};
    std::uint64_t hash = 0;
    std::uint64_t executed = 0;
  };
  // Shards only ever touch their own slot; the flash::RngDomain streams
  // make each shard's draws a function of its id alone.
  std::vector<ShardWorld> worlds(kShards);
  const flash::RngDomain domain(seed);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    worlds[s].rng = domain.ForDomain(s);
  }

  struct Chain {
    ShardedEngine* engine;
    std::vector<ShardWorld>* worlds;
    std::uint32_t shard;
    int left;

    void operator()() const {
      ShardWorld& w = (*worlds)[shard];
      Simulator* sim = engine->shard(shard);
      w.hash = Fold(w.hash, sim->Now());
      ++w.executed;
      if (left == 0) return;
      const std::uint64_t draw = w.rng.Next();
      const SimTime delta = 1 + (draw & 0x3f);
      if ((draw >> 8 & 3) == 0) {
        // Cross-shard hop: the chain continues on another shard.
        const auto to = static_cast<std::uint32_t>(
            (draw >> 16) % engine->num_shards());
        engine->Post(shard, to, sim->Now() + kLookahead + delta,
                     Chain{engine, worlds, to, left - 1});
      } else {
        sim->Schedule(delta, Chain{engine, worlds, shard, left - 1});
      }
    }
  };

  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (int c = 0; c < 6; ++c) {
      engine.shard(s)->Schedule(s + c, Chain{&engine, &worlds, s, 120});
    }
  }
  engine.Run();

  std::uint64_t digest = engine.Fingerprint();
  for (const ShardWorld& w : worlds) {
    digest = Fold(digest, w.hash);
    digest = Fold(digest, w.executed);
  }
  digest = Fold(digest, engine.events_executed());
  digest = Fold(digest, engine.Now());
  return digest;
}

TEST(ShardedDeterminismTest, IdenticalScheduleAtEveryWorkerCount) {
  for (const std::uint64_t seed : {1ull, 0xdecafbadull}) {
    const std::uint64_t reference = RunRandomWorld(/*workers=*/0, seed);
    for (const std::uint32_t workers : {1u, 2u, 4u, 8u}) {
      EXPECT_EQ(RunRandomWorld(workers, seed), reference)
          << "workers=" << workers << " seed=" << seed
          << " diverged from the sequential reference";
    }
  }
}

TEST(ShardedDeterminismTest, RunTwiceBitIdenticalPerWorkerCount) {
  for (const std::uint32_t workers : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(RunRandomWorld(workers, 77), RunRandomWorld(workers, 77))
        << "workers=" << workers << " not reproducible across runs";
  }
}

// --- Inline and pooled windows ----------------------------------------

/// A workload whose windows alternate between thin and fat. Each shard
/// runs a sparse chain that hops shards now and then (thin windows);
/// at shared random instants every shard also starts a burst of dense
/// chains, a few hundred events per window for several windows (fat
/// windows, worth pooling), whose events post equal-timestamp messages
/// across shards. Returns the schedule digest; `inline_windows` and
/// `pooled_windows` receive the engine's window-mode counts.
std::uint64_t RunMixedWorld(std::uint32_t workers, std::uint64_t seed,
                            std::uint64_t* inline_windows,
                            std::uint64_t* pooled_windows) {
  constexpr std::uint32_t kShards = 5;
  constexpr SimTime kLookahead = 64;

  ShardedConfig config;
  config.shards = kShards;
  config.workers = workers;
  config.lookahead = kLookahead;
  ShardedEngine engine(config);

  struct ShardWorld {
    Rng rng{0};
    std::uint64_t hash = 0;
    std::uint64_t executed = 0;
  };
  std::vector<ShardWorld> worlds(kShards);
  const flash::RngDomain domain(seed);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    worlds[s].rng = domain.ForDomain(s);
  }

  struct Event {
    ShardedEngine* engine;
    std::vector<ShardWorld>* worlds;
    std::uint32_t shard;
    int left;
    bool dense;

    void operator()() const {
      ShardWorld& w = (*worlds)[shard];
      Simulator* sim = engine->shard(shard);
      w.hash = Fold(w.hash, sim->Now() ^ (dense ? 1ull << 63 : 0));
      ++w.executed;
      if (left == 0) return;
      const std::uint64_t draw = w.rng.Next();
      const auto to = static_cast<std::uint32_t>(
          (draw >> 16) % engine->num_shards());
      if (dense) {
        // Two events per ns on average; every 16th posts a message whose
        // timestamp collides with other senders' often.
        if ((draw >> 8 & 15) == 0) {
          engine->Post(shard, to, sim->Now() + kLookahead + (draw >> 40 & 3),
                       Event{engine, worlds, to, 0, false});
        }
        sim->Schedule(draw & 1, Event{engine, worlds, shard, left - 1, true});
      } else if ((draw >> 8 & 3) == 0) {
        engine->Post(shard, to, sim->Now() + kLookahead + (draw & 0x3ff),
                     Event{engine, worlds, to, left - 1, false});
      } else {
        sim->Schedule(1 + (draw & 0x3ff),
                      Event{engine, worlds, shard, left - 1, false});
      }
    }
  };

  for (std::uint32_t s = 0; s < kShards; ++s) {
    engine.shard(s)->Schedule(s, Event{&engine, &worlds, s, 400, false});
  }
  Rng bursts = domain.ForDomain(kShards);
  for (int b = 0; b < 8; ++b) {
    const SimTime at = 1000 + bursts.Uniform(100'000);
    for (std::uint32_t s = 0; s < kShards; ++s) {
      for (int c = 0; c < 3; ++c) {
        engine.shard(s)->ScheduleAt(at + c,
                                    Event{&engine, &worlds, s, 1000, true});
      }
    }
  }
  engine.Run();

  *inline_windows = engine.inline_windows();
  *pooled_windows = engine.pooled_windows();
  EXPECT_EQ(*inline_windows + *pooled_windows, engine.rounds());
  std::uint64_t digest = engine.Fingerprint();
  for (const ShardWorld& w : worlds) {
    digest = Fold(digest, w.hash);
    digest = Fold(digest, w.executed);
  }
  digest = Fold(digest, engine.events_executed());
  digest = Fold(digest, engine.messages_delivered());
  digest = Fold(digest, engine.Now());
  return digest;
}

TEST(ShardedWindowModeTest, ThinAndFatWindowsScheduleIdentically) {
  for (const std::uint64_t seed : {3ull, 0x5eedf00dull}) {
    std::uint64_t inl = 0;
    std::uint64_t pooled = 0;
    const std::uint64_t reference = RunMixedWorld(0, seed, &inl, &pooled);
    EXPECT_EQ(pooled, 0u) << "workers=0 has no pool";
    for (const std::uint32_t workers : {1u, 2u, 4u, 8u}) {
      std::uint64_t inl1 = 0, pooled1 = 0, inl2 = 0, pooled2 = 0;
      EXPECT_EQ(RunMixedWorld(workers, seed, &inl1, &pooled1), reference)
          << "workers=" << workers << " seed=" << seed
          << " diverged from the sequential reference";
      EXPECT_EQ(RunMixedWorld(workers, seed, &inl2, &pooled2), reference)
          << "workers=" << workers << " seed=" << seed
          << " not reproducible across runs";
      // The mode sequence is a function of committed state alone.
      EXPECT_EQ(inl1, inl2);
      EXPECT_EQ(pooled1, pooled2);
      EXPECT_GT(inl1, 0u) << "workers=" << workers;
      if (workers == 1) {
        EXPECT_EQ(pooled1, 0u) << "one worker never wakes a pool";
      } else {
        EXPECT_GT(pooled1, 0u) << "workers=" << workers
                               << ": no window was fat enough to pool";
      }
    }
  }
}

TEST(ShardedEngineTest, SeamTrafficObservability) {
  ShardedConfig config;
  config.shards = 2;
  config.workers = 0;
  config.lookahead = 10;
  ShardedEngine engine(config);
  engine.Post(0, 1, 5, [] {});
  engine.shard(0)->Schedule(3, [&] {
    engine.Post(0, 1, engine.shard(0)->Now() + 10, [] {});
  });
  engine.Run();
  EXPECT_EQ(engine.messages_delivered(), 2u);
  EXPECT_GE(engine.rounds(), 1u);
  EXPECT_EQ(engine.events_executed(), 3u);
}

}  // namespace
}  // namespace postblock::sim
