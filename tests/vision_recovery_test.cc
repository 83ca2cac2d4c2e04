// The post-block crossover's crash story: a StorageManager in vision
// wiring over the append-mode device (FtlKind::kVisionAppend) — host
// owns the L2P, the device issues names — must survive power loss at
// any point. Recovery rebuilds the host map from the device's LiveNames
// scan (OOB owner stamps + checkpoint epochs), then replays the WAL.
// Also: the append device's own name discipline (generation-guarded
// stale names, cooperative migration), and run-twice determinism of
// both wirings.

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/nameless.h"
#include "db/storage_manager.h"
#include "host/command.h"
#include "sim/simulator.h"
#include "ssd/device.h"

namespace postblock::db {
namespace {

ssd::Config AppendSsd() {
  ssd::Config c = ssd::Config::Small();
  c.geometry.blocks_per_plane = 64;
  c.ftl = ssd::FtlKind::kVisionAppend;
  return c;
}

class VisionRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulator>();
    device_ = std::make_unique<ssd::Device>(sim_.get(), AppendSsd());
    StorageConfig cfg;
    cfg.wiring = Wiring::kVision;
    cfg.buffer_frames = 256;
    manager_ =
        std::make_unique<StorageManager>(sim_.get(), device_.get(), cfg);
    Status st = Sync([&](StorageManager::StatusCb cb) {
      manager_->Bootstrap(std::move(cb));
    });
    ASSERT_TRUE(st.ok()) << st;
  }

  template <typename F>
  Status Sync(F&& f) {
    Status out = Status::Internal("pending");
    bool fired = false;
    f([&](Status st) {
      out = std::move(st);
      fired = true;
    });
    EXPECT_TRUE(sim_->RunUntilPredicate([&] { return fired; }))
        << "operation stalled";
    return out;
  }

  Status Put(std::uint64_t k, std::uint64_t v) {
    return Sync([&](StorageManager::StatusCb cb) {
      manager_->Put(k, v, std::move(cb));
    });
  }

  Status Del(std::uint64_t k) {
    return Sync([&](StorageManager::StatusCb cb) {
      manager_->Delete(k, std::move(cb));
    });
  }

  StatusOr<std::uint64_t> Get(std::uint64_t k) {
    StatusOr<std::uint64_t> out = Status::Internal("pending");
    bool fired = false;
    manager_->Get(k, [&](StatusOr<std::uint64_t> r) {
      out = std::move(r);
      fired = true;
    });
    EXPECT_TRUE(sim_->RunUntilPredicate([&] { return fired; }));
    return out;
  }

  Status Checkpoint() {
    return Sync([&](StorageManager::StatusCb cb) {
      manager_->Checkpoint(std::move(cb));
    });
  }

  Status CrashAndRecover() {
    PB_RETURN_IF_ERROR(manager_->SimulateCrash());
    return Sync([&](StorageManager::StatusCb cb) {
      manager_->Recover(std::move(cb));
    });
  }

  void VerifyShadow(const std::map<std::uint64_t, std::uint64_t>& shadow,
                    const char* where) {
    for (const auto& [k, v] : shadow) {
      ASSERT_EQ(*Get(k), v) << where << " key " << k;
    }
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<ssd::Device> device_;
  std::unique_ptr<StorageManager> manager_;
};

TEST_F(VisionRecoveryTest, AppendWiringIsCapabilityProbed) {
  // The manager must have discovered the append device through Caps()
  // and wired the host-owned map in — not by peeking at the config.
  ASSERT_NE(manager_->host_map(), nullptr);
  ASSERT_NE(device_->append_ftl(), nullptr);
  EXPECT_GT(manager_->host_map()->live(), 0u);   // bootstrap checkpoint
  EXPECT_GT(manager_->host_map()->MappingBytes(), 0u);
  EXPECT_EQ(manager_->ckpt_seq(), 1u);
  // The device below holds no per-page L2P: its mapping DRAM is
  // per-block bookkeeping, far below 8 B per logical page.
  EXPECT_LT(device_->Caps().mapping_table_bytes,
            device_->num_blocks() * 8);
  ASSERT_TRUE(Put(1, 10).ok());
  EXPECT_EQ(*Get(1), 10u);
}

TEST_F(VisionRecoveryTest, RecoverWithoutCheckpointReplaysWal) {
  for (std::uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(Put(k, k * 7).ok());
  }
  ASSERT_TRUE(CrashAndRecover().ok());
  for (std::uint64_t k = 0; k < 50; ++k) {
    ASSERT_EQ(*Get(k), k * 7) << k;
  }
}

TEST_F(VisionRecoveryTest, RecoverAfterCheckpointAndMoreCommits) {
  for (std::uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(Put(k, k + 1).ok());
  }
  ASSERT_TRUE(Checkpoint().ok());
  for (std::uint64_t k = 40; k < 80; ++k) {
    ASSERT_TRUE(Put(k, k + 1).ok());
  }
  ASSERT_TRUE(Del(0).ok());
  ASSERT_TRUE(CrashAndRecover().ok());
  EXPECT_TRUE(Get(0).status().IsNotFound());
  for (std::uint64_t k = 1; k < 80; ++k) {
    ASSERT_EQ(*Get(k), k + 1) << k;
  }
}

TEST_F(VisionRecoveryTest, TornCheckpointFallsBackToPriorEpoch) {
  std::map<std::uint64_t, std::uint64_t> shadow;
  for (std::uint64_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(Put(k, k + 100).ok());
    shadow[k] = k + 100;
  }
  ASSERT_TRUE(Checkpoint().ok());
  const std::uint64_t committed = manager_->ckpt_seq();
  // Overwrite every key: the next checkpoint's flush replaces pages
  // that all have committed epoch-1 copies on flash.
  for (std::uint64_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(Put(k, k + 500).ok());
    shadow[k] = k + 500;
  }
  // Start a checkpoint and cut power while its page writes are in
  // flight — before the meta page (the commit point) can land.
  bool ckpt_fired = false;
  manager_->Checkpoint([&](Status) { ckpt_fired = true; });
  // Run until some of the checkpoint's page writes have completed (the
  // host map retires each overwritten old copy as its replacement
  // lands) but the checkpoint as a whole hasn't committed.
  ASSERT_TRUE(sim_->RunUntilPredicate([&] {
    return ckpt_fired || manager_->host_map()->retired() >= 1;
  }));
  ASSERT_FALSE(ckpt_fired);
  ASSERT_TRUE(manager_->SimulateCrash().ok());
  Status st = Sync([&](StorageManager::StatusCb cb) {
    manager_->Recover(std::move(cb));
  });
  ASSERT_TRUE(st.ok()) << st;
  // The torn checkpoint's orphan pages (epoch > committed) were
  // discarded; recovery attached to the prior epoch and the WAL replay
  // reconstructed everything acknowledged.
  EXPECT_EQ(manager_->ckpt_seq(), committed);
  EXPECT_GT(manager_->counters().Get("orphan_names"), 0u);
  VerifyShadow(shadow, "torn checkpoint");
}

TEST_F(VisionRecoveryTest, ShadowMapCrashTorture) {
  // The PR 4 torture pattern on the post-block stack: random
  // put/delete traffic against an in-memory shadow, power cycles
  // landing between commits, after checkpoints, and *inside*
  // checkpoints. After every recovery the database must agree with the
  // shadow exactly — no lost acknowledged commit, no stale page, no
  // aliased name.
  Rng rng(11);
  std::map<std::uint64_t, std::uint64_t> shadow;
  for (int round = 0; round < 6; ++round) {
    const int ops = 40 + static_cast<int>(rng.Uniform(40));
    for (int i = 0; i < ops; ++i) {
      const std::uint64_t k = rng.Uniform(200);
      if (rng.Bernoulli(0.25)) {
        ASSERT_TRUE(Del(k).ok());
        shadow.erase(k);
      } else {
        const std::uint64_t v = rng.Next() | 1;
        ASSERT_TRUE(Put(k, v).ok());
        shadow[k] = v;
      }
    }
    switch (round % 3) {
      case 0:
        break;  // crash with a WAL full of post-checkpoint commits
      case 1:
        ASSERT_TRUE(Checkpoint().ok());
        break;
      case 2: {
        // Torn checkpoint: cut power mid-flush.
        bool fired = false;
        manager_->Checkpoint([&](Status) { fired = true; });
        sim_->RunUntil(sim_->Now() + 10 * 1000 + rng.Uniform(40 * 1000));
        (void)fired;
        break;
      }
    }
    ASSERT_TRUE(CrashAndRecover().ok()) << "round " << round;
    VerifyShadow(shadow, "torture round");
  }
  // The workload churned enough to retire and free old copies; the
  // device must have gotten space back (erases happened) without ever
  // garbage-collecting on its own initiative.
  EXPECT_GT(device_->counters().Get("nameless_frees"), 0u);
}

TEST_F(VisionRecoveryTest, CrashWithPooledOpsInFlight) {
  // Power cuts with pooled per-op records in flight at every layer: a
  // Get waiting on a page miss, a Put partway down the tree, and a
  // nameless checkpoint between its page writes and its commit point.
  // Each cut reclaims the pools (the power-cycled layers drop their
  // records with the completions that would have used them); no
  // callback of a pre-crash op ever runs, and the recovered stack keeps
  // working on recycled records.
  std::map<std::uint64_t, std::uint64_t> shadow;
  for (std::uint64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE(Put(k, k + 1).ok());
    shadow[k] = k + 1;
  }
  ASSERT_TRUE(Checkpoint().ok());
  int stale_callbacks = 0;
  BufferPool* pool = manager_->buffer_pool();
  auto crash_and_recover = [&](const char* where) {
    ASSERT_TRUE(manager_->SimulateCrash().ok()) << where;
    Status st = Sync([&](StorageManager::StatusCb cb) {
      manager_->Recover(std::move(cb));
    });
    ASSERT_TRUE(st.ok()) << where << ": " << st;
    VerifyShadow(shadow, where);
    // Continue on the recycled records.
    for (std::uint64_t k = 300; k < 320; ++k) {
      ASSERT_TRUE(Put(k, k * 3).ok()) << where;
      shadow[k] = k * 3;
    }
    ASSERT_TRUE(Checkpoint().ok()) << where;
    VerifyShadow(shadow, where);
  };

  // 1. A Get whose leaf read is at the device.
  pool->InvalidateClean();
  const std::uint64_t misses0 = pool->counters().Get("misses");
  manager_->Get(42, [&](StatusOr<std::uint64_t>) { ++stale_callbacks; });
  ASSERT_GT(pool->counters().Get("misses"), misses0);
  sim_->RunUntil(sim_->Now() + 1000);
  crash_and_recover("get miss");

  // 2. A Put whose WAL record is durable and whose descent waits on a
  // page miss: never acknowledged, but replayed from the log.
  pool->InvalidateClean();
  const std::uint64_t misses1 = pool->counters().Get("misses");
  manager_->Put(7, 777, [&](Status) { ++stale_callbacks; });
  ASSERT_TRUE(sim_->RunUntilPredicate(
      [&] { return pool->counters().Get("misses") > misses1; }));
  shadow[7] = 777;
  crash_and_recover("put descent");

  // 3. A nameless checkpoint with some page writes landed (their old
  // copies retired) and the meta page not yet written.
  for (std::uint64_t k = 0; k < 300; k += 3) {
    ASSERT_TRUE(Put(k, k + 5).ok());
    shadow[k] = k + 5;
  }
  manager_->Checkpoint([&](Status) { ++stale_callbacks; });
  ASSERT_TRUE(sim_->RunUntilPredicate(
      [&] { return manager_->host_map()->retired() >= 1; }));
  crash_and_recover("nameless checkpoint");

  sim_->Run();
  EXPECT_EQ(stale_callbacks, 0) << "a pre-crash continuation ran";
  EXPECT_EQ(manager_->host_map()->counters().Get("stale_migrations"), 0u);
}

// --- Device-level name discipline -------------------------------------------

TEST(AppendDeviceTest, StaleNamesAreNotFoundNeverAliased) {
  // Free a name, force its block through erase + reprogram, then read
  // the dead name: the generation guard must answer NotFound — serving
  // whatever landed in that physical page would be an aliased read.
  sim::Simulator sim;
  ssd::Device dev(&sim, AppendSsd());
  auto write = [&](std::uint64_t token) {
    std::uint64_t name = 0;
    bool fired = false;
    dev.Execute(host::Command::NamelessWrite(
        token, [&](const blocklayer::IoResult& r) {
          ASSERT_TRUE(r.status.ok()) << r.status;
          name = r.tokens[0];
          fired = true;
        }));
    EXPECT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
    return name;
  };
  const std::uint64_t doomed = write(0xdead);
  bool freed = false;
  dev.Execute(host::Command::NamelessFree(
      doomed, [&](const blocklayer::IoResult& r) {
        ASSERT_TRUE(r.status.ok());
        freed = true;
      }));
  ASSERT_TRUE(sim.RunUntilPredicate([&] { return freed; }));
  // The freed page was its block's only live page, so the block was
  // erased. Writing a full device's worth of fresh pages guarantees
  // the physical page is programmed again under a new generation.
  const std::uint64_t fill = dev.append_ftl()->user_pages() / 2;
  std::set<std::uint64_t> fresh;
  for (std::uint64_t i = 0; i < fill; ++i) fresh.insert(write(i + 1));
  EXPECT_EQ(fresh.size(), fill);        // all distinct
  EXPECT_EQ(fresh.count(doomed), 0u);   // the dead name never reissued
  Status st = Status::Ok();
  dev.Execute(host::Command::NamelessRead(
      doomed,
      [&](const blocklayer::IoResult& r) { st = r.status; }));
  sim.Run();
  EXPECT_TRUE(st.IsNotFound()) << st;
}

TEST(AppendDeviceTest, CooperativeMigrationKeepsNamesReadable) {
  // Fragment the device (free scattered pages) and keep writing until
  // the free-block watermark forces cooperative migration. Every move
  // must arrive as a callback, and every live name must stay readable
  // with its original payload.
  sim::Simulator sim;
  ssd::Device dev(&sim, AppendSsd());
  core::NamelessStore store(&sim, &dev);
  ASSERT_TRUE(store.device_supported());
  std::map<std::uint64_t, std::uint64_t> values;  // name -> token
  store.SetMigrationHandler([&](std::uint64_t old_name,
                                std::uint64_t new_name) {
    auto it = values.find(old_name);
    ASSERT_NE(it, values.end()) << "migration callback for unknown name";
    values.emplace(new_name, it->second);
    values.erase(it);
  });
  auto write = [&](std::uint64_t token) {
    bool fired = false;
    store.Write(token, [&](StatusOr<std::uint64_t> r) {
      ASSERT_TRUE(r.ok()) << r.status();
      values.emplace(*r, token);
      fired = true;
    });
    ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
  };
  auto free_name = [&](std::uint64_t name) {
    bool fired = false;
    store.Free(name, [&](Status st) {
      ASSERT_TRUE(st.ok()) << st;
      fired = true;
    });
    ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
    values.erase(name);
  };
  const std::uint64_t capacity = dev.append_ftl()->user_pages();
  std::uint64_t token = 1;
  for (std::uint64_t i = 0; i < capacity * 6 / 10; ++i) write(token++);
  for (int round = 0; round < 4; ++round) {
    // Free every 4th live name (blocks stay 75% live — erases need
    // migration), then write replacements.
    std::vector<std::uint64_t> names;
    names.reserve(values.size());
    for (const auto& [n, t] : values) names.push_back(n);
    std::size_t freed = 0;
    for (std::size_t i = 0; i < names.size(); i += 4) {
      free_name(names[i]);
      ++freed;
    }
    for (std::size_t i = 0; i < freed; ++i) write(token++);
  }
  EXPECT_GT(dev.counters().Get("nameless_migrations"), 0u);
  // Every name the host holds reads back its own payload.
  for (const auto& [name, expect] : values) {
    std::uint64_t got = 0;
    bool fired = false;
    store.Read(name, [&](StatusOr<std::uint64_t> r) {
      ASSERT_TRUE(r.ok()) << r.status();
      got = *r;
      fired = true;
    });
    ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
    ASSERT_EQ(got, expect) << "name " << name;
  }
  // Migration never invented or lost space.
  EXPECT_EQ(dev.append_ftl()->live_pages(), values.size());
}

TEST(AppendDeviceTest, FreeDuringMigrationCopyDropsTheCopy) {
  // A host free that lands while its page's migration copy is in flight
  // (read issued, program not yet complete) must win: the device drops
  // the copy and reports no move for the dead name. The copy used to
  // land anyway, reported under the freed name and counted twice
  // against the victim block, whose live count then wrapped and let a
  // later reclaim erase the block under a live host page.
  sim::Simulator sim;
  ssd::Device dev(&sim, AppendSsd());
  core::NamelessStore store(&sim, &dev);
  ASSERT_TRUE(store.device_supported());
  const std::uint32_t pages_per_block =
      dev.config().geometry.pages_per_block;
  std::map<std::uint64_t, std::uint64_t> values;  // name -> token
  int frees_in_flight = 0;
  int frees_done = 0;
  store.SetMigrationHandler([&](std::uint64_t old_name,
                                std::uint64_t new_name) {
    auto it = values.find(old_name);
    ASSERT_NE(it, values.end()) << "migration callback for unknown name";
    values.emplace(new_name, it->second);
    values.erase(it);
    if (frees_in_flight >= 10) return;
    // The device has just issued the read of the victim's next live
    // page: the lowest page above this one in the same block. Free it
    // once that read is under way, before its copy can be programmed.
    const std::uint64_t slot = host::NameSlot(old_name);
    const std::uint64_t block = slot / pages_per_block;
    std::uint64_t next = 0;
    bool found = false;
    for (const auto& [name, token] : values) {
      const std::uint64_t s = host::NameSlot(name);
      if (s / pages_per_block == block && s > slot &&
          (!found || s < host::NameSlot(next))) {
        next = name;
        found = true;
      }
    }
    if (!found) return;
    ++frees_in_flight;
    values.erase(next);
    sim.Schedule(0, [&store, &frees_done, next] {
      store.Free(next, [&frees_done](Status st) {
        EXPECT_TRUE(st.ok()) << st;
        ++frees_done;
      });
    });
  });
  auto write = [&](std::uint64_t token) {
    bool fired = false;
    store.Write(token, [&](StatusOr<std::uint64_t> r) {
      ASSERT_TRUE(r.ok()) << r.status();
      values.emplace(*r, token);
      fired = true;
    });
    ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
  };
  const std::uint64_t capacity = dev.append_ftl()->user_pages();
  std::uint64_t token = 1;
  for (std::uint64_t i = 0; i < capacity * 6 / 10; ++i) write(token++);
  for (int round = 0; round < 4; ++round) {
    // Free every 4th live name (skipping any the handler already freed
    // or the device renamed), then write replacements.
    std::vector<std::uint64_t> names;
    for (const auto& [n, t] : values) names.push_back(n);
    std::size_t freed = 0;
    for (std::size_t i = 0; i < names.size(); i += 4) {
      if (values.count(names[i]) == 0) continue;
      bool fired = false;
      store.Free(names[i], [&](Status st) {
        ASSERT_TRUE(st.ok()) << st;
        fired = true;
      });
      ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
      values.erase(names[i]);
      ++freed;
    }
    for (std::size_t i = 0; i < freed; ++i) write(token++);
  }
  sim.Run();
  const Counters& ftl = dev.append_ftl()->counters();
  ASSERT_GT(frees_in_flight, 0) << "no migration ran";
  EXPECT_EQ(frees_done, frees_in_flight);
  EXPECT_GT(ftl.Get("migrate_copies_dropped"), 0u);
  // No ghost: the device holds exactly the host's live pages, and every
  // name the host holds reads back its own payload.
  EXPECT_EQ(dev.append_ftl()->live_pages(), values.size());
  EXPECT_EQ(dev.LiveNames().size(), values.size());
  for (const auto& [name, expect] : values) {
    std::uint64_t got = 0;
    bool fired = false;
    store.Read(name, [&](StatusOr<std::uint64_t> r) {
      ASSERT_TRUE(r.ok()) << r.status();
      got = *r;
      fired = true;
    });
    ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
    ASSERT_EQ(got, expect) << "name " << name;
  }
  EXPECT_EQ(ftl.Get("stale_name_reads"), 0u);
}

// --- Run-twice determinism ---------------------------------------------------

std::string WorkloadDigest(Wiring wiring, bool append_device) {
  sim::Simulator sim;
  ssd::Config cfg = ssd::Config::Small();
  cfg.geometry.blocks_per_plane = 64;
  if (append_device) cfg.ftl = ssd::FtlKind::kVisionAppend;
  ssd::Device device(&sim, cfg);
  StorageConfig scfg;
  scfg.wiring = wiring;
  scfg.buffer_frames = 128;
  StorageManager manager(&sim, &device, scfg);
  auto sync = [&](auto&& f) {
    Status out = Status::Internal("pending");
    bool fired = false;
    f([&](Status st) {
      out = std::move(st);
      fired = true;
    });
    EXPECT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
    return out;
  };
  EXPECT_TRUE(sync([&](StorageManager::StatusCb cb) {
                manager.Bootstrap(std::move(cb));
              }).ok());
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t k = rng.Uniform(150);
    EXPECT_TRUE(sync([&](StorageManager::StatusCb cb) {
                  manager.Put(k, rng.Next(), std::move(cb));
                }).ok());
    if (i % 64 == 63) {
      EXPECT_TRUE(sync([&](StorageManager::StatusCb cb) {
                    manager.Checkpoint(std::move(cb));
                  }).ok());
    }
  }
  std::ostringstream out;
  out << sim.Now() << ':' << manager.counters().Get("txns") << ':'
      << manager.counters().Get("checkpoints") << ':'
      << device.ftl()->WriteAmplification() << ':'
      << device.counters().Get("requests") << ':'
      << device.counters().Get("nameless_writes") << ':'
      << manager.commit_latency().Mean();
  return out.str();
}

TEST(VisionDeterminismTest, RunTwiceIsIdenticalBothWirings) {
  // The repo's schedule contract extends to the post-block stack: the
  // same workload must produce byte-identical digests on a second run,
  // for the classic wiring and for the vision wiring over the append
  // device alike.
  const std::string classic1 = WorkloadDigest(Wiring::kClassic, false);
  const std::string classic2 = WorkloadDigest(Wiring::kClassic, false);
  EXPECT_EQ(classic1, classic2);
  const std::string vision1 = WorkloadDigest(Wiring::kVision, true);
  const std::string vision2 = WorkloadDigest(Wiring::kVision, true);
  EXPECT_EQ(vision1, vision2);
  EXPECT_NE(classic1, vision1);  // genuinely different architectures
}

}  // namespace
}  // namespace postblock::db
