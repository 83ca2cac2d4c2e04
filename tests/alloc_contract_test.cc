// The allocation contract of the SSD device path. Once an aged
// page-mapped ssd::Device is warm, a closed loop of 4 KiB reads and
// writes with garbage collection running makes at most one heap
// allocation per IO — the token vector the IoRequest/IoResult API itself
// carries (a write's payload, a read's result) — and every continuation
// from Device down to Controller stays in its callback's inline buffer
// (no CallbackSlab chunk is ever minted). Per-op state lives in pools
// owned by the issuing layer, which stop growing once they reach their
// high-water mark. A blocklayer::BlockLayer stacked on the same device
// adds nothing per IO: its tag-indexed states keep their token buffers,
// so a read's result is copied up without allocating.
//
// The post-block DB path holds the same line from the top: a
// db::StorageManager in vision wiring over an append-mode device (B+-tree,
// buffer pool, WAL into the PCM log, host map, direct driver, append
// FTL) keeps its per-op state in owner pools too, and every continuation
// inline. What it still allocates per op is the device path's result
// token vector, the page images a checkpoint registers and the tagged
// write commands that carry them.
//
// This binary replaces the global operator new (as bench_sim_core does),
// so every allocation anywhere in the process is counted.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocklayer/block_layer.h"
#include "common/rng.h"
#include "db/storage_manager.h"
#include "sim/inplace_callback.h"
#include "sim/simulator.h"
#include "ssd/device.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
// Not inlined: where GCC inlines a replacement delete into a caller of
// the replaceable operator new (gtest's test factory, in the TSan build)
// it pairs that new with the free() below and warns of a mismatch it
// cannot see is not one (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace postblock::ssd {
namespace {

using blocklayer::IoOp;
using blocklayer::IoRequest;
using blocklayer::IoResult;

/// Closed-loop 4 KiB client at a fixed depth. It checks every read
/// against a shadow of the last token written and allocates nothing of
/// its own per IO beyond the write's token vector.
class ClosedLoop {
 public:
  ClosedLoop(sim::Simulator* sim, blocklayer::BlockDevice* dev,
             std::uint32_t depth)
      : sim_(sim), dev_(dev), shadow_(dev->num_blocks(), 0), slots_(depth) {}

  /// Runs `ops` IOs; `sequential` writes every LBA in order, otherwise
  /// each IO hits a uniform LBA and is a write with `write_fraction`.
  void Run(std::uint64_t ops, double write_fraction, bool sequential) {
    target_ = ops;
    issued_ = 0;
    completed_ = 0;
    write_fraction_ = write_fraction;
    sequential_ = sequential;
    next_lba_ = 0;
    for (std::uint32_t s = 0; s < slots_.size() && issued_ < target_; ++s) {
      Issue(s);
    }
    sim_->RunUntilPredicate([this] { return completed_ == target_; });
  }

  std::uint64_t completed() const { return completed_; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t stale_reads() const { return stale_reads_; }

 private:
  struct Slot {
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
    ++issued_;
    const bool write = sequential_ || rng_.Bernoulli(write_fraction_);
    Lba lba;
    if (sequential_) {
      lba = next_lba_++ % shadow_.size();
    } else {
      do {
        lba = rng_.Uniform(shadow_.size());
      } while (LbaBusy(lba));
    }
    slots_[s] = Slot{lba, write ? ++last_token_ : 0, true};
    IoRequest req;
    req.op = write ? IoOp::kWrite : IoOp::kRead;
    req.lba = lba;
    if (write) req.tokens.push_back(slots_[s].token);
    req.on_complete = [this, s](const IoResult& r) { OnDone(s, r); };
    dev_->Submit(std::move(req));
  }

  void OnDone(std::uint32_t s, const IoResult& r) {
    Slot& slot = slots_[s];
    slot.busy = false;
    ++completed_;
    if (!r.status.ok()) {
      ++failures_;
    } else if (slot.token != 0) {
      shadow_[slot.lba] = slot.token;
    } else if (shadow_[slot.lba] != 0 &&
               (r.tokens.size() != 1 || r.tokens[0] != shadow_[slot.lba])) {
      ++stale_reads_;
    }
    if (issued_ < target_) Issue(s);
  }

  sim::Simulator* sim_;
  blocklayer::BlockDevice* dev_;
  Rng rng_{42};
  std::vector<std::uint64_t> shadow_;
  std::vector<Slot> slots_;
  std::uint64_t target_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t next_lba_ = 0;
  std::uint64_t last_token_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t stale_reads_ = 0;
  double write_fraction_ = 0;
  bool sequential_ = false;
};

TEST(AllocContractTest, AgedPageFtlDeviceMakesOneAllocationPerIo) {
  constexpr std::uint32_t kDepth = 8;
  constexpr std::uint64_t kMixedOps = 20'000;
  sim::Simulator sim;
  Config config = Config::Small();
  config.over_provisioning = 0.10;
  Device dev(&sim, config);
  const std::uint64_t lbas = dev.num_blocks();
  ClosedLoop client(&sim, &dev, kDepth);

  // Age: fill every LBA, then overwrite at random until GC is busy.
  client.Run(lbas, 1.0, /*sequential=*/true);
  client.Run(4 * lbas, 1.0, /*sequential=*/false);
  const Counters& ftl = dev.ftl()->counters();
  ASSERT_GT(ftl.Get("gc_runs"), 0u) << "device never aged into GC";

  // Warm up with the measured mix, so every pool, free list, scratch
  // vector and counter name reaches its high-water mark first.
  client.Run(kMixedOps, 0.5, /*sequential=*/false);

  const std::uint64_t gc_runs0 = ftl.Get("gc_runs");
  const sim::CallbackSlab::Stats slab0 = sim::CallbackSlab::stats();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  client.Run(kMixedOps, 0.5, /*sequential=*/false);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs0;
  const sim::CallbackSlab::Stats slab1 = sim::CallbackSlab::stats();

  ASSERT_EQ(client.completed(), kMixedOps);
  EXPECT_EQ(client.failures(), 0u);
  EXPECT_EQ(client.stale_reads(), 0u);
  EXPECT_GT(ftl.Get("gc_runs"), gc_runs0) << "GC idle in the measured phase";
  EXPECT_LE(allocs, kMixedOps)
      << static_cast<double>(allocs) / kMixedOps << " allocations per IO";
  EXPECT_EQ(slab1.oversize_allocs, slab0.oversize_allocs);
  EXPECT_EQ(slab1.chunk_allocs, slab0.chunk_allocs);
  EXPECT_EQ(slab1.chunk_reuses, slab0.chunk_reuses)
      << "a device-path continuation spilled out of its inline buffer";
}

TEST(AllocContractTest, BlockLayerOverAgedDeviceAddsNoAllocationPerIo) {
  constexpr std::uint32_t kDepth = 8;
  constexpr std::uint64_t kMixedOps = 20'000;
  sim::Simulator sim;
  Config config = Config::Small();
  config.over_provisioning = 0.10;
  Device dev(&sim, config);
  blocklayer::BlockLayer blk(&sim, &dev, blocklayer::BlockLayerConfig{});
  const std::uint64_t lbas = blk.num_blocks();
  ClosedLoop client(&sim, &blk, kDepth);

  client.Run(lbas, 1.0, /*sequential=*/true);
  client.Run(4 * lbas, 1.0, /*sequential=*/false);
  client.Run(kMixedOps, 0.5, /*sequential=*/false);

  const std::uint64_t reads0 = blk.counters().Get("completed");
  const sim::CallbackSlab::Stats slab0 = sim::CallbackSlab::stats();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  client.Run(kMixedOps, 0.5, /*sequential=*/false);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs0;
  const sim::CallbackSlab::Stats slab1 = sim::CallbackSlab::stats();

  ASSERT_EQ(client.completed(), kMixedOps);
  ASSERT_EQ(blk.counters().Get("completed") - reads0, kMixedOps);
  EXPECT_EQ(client.failures(), 0u);
  EXPECT_EQ(client.stale_reads(), 0u);
  // The device path's one allocation per IO (a write's payload, a
  // read's result), and nothing from the block layer on top of it.
  EXPECT_LE(allocs, kMixedOps)
      << static_cast<double>(allocs) / kMixedOps << " allocations per IO";
  // The dispatch-accounting wrapper is boxed into a recycled slab chunk
  // (a reuse, not an allocation); no new chunk may be minted.
  EXPECT_EQ(slab1.chunk_allocs, slab0.chunk_allocs);
}

/// Runs StorageManager ops one at a time, each to completion, checking
/// every Get against a shadow of the last value written.
class DbDriver {
 public:
  DbDriver(sim::Simulator* sim, db::StorageManager* m, std::uint64_t keys)
      : sim_(sim), m_(m), shadow_(keys, 0) {}

  void Bootstrap() {
    m_->Bootstrap(status_cb());
    Wait();
  }

  /// Puts every key, `batch` keys per transaction, checkpointing every
  /// `checkpoint_every` transactions (the no-steal pool must not fill
  /// with dirty pages).
  void BulkLoad(std::uint64_t batch, std::uint64_t checkpoint_every) {
    std::uint64_t txns = 0;
    for (std::uint64_t base = 0; base < shadow_.size(); base += batch) {
      std::vector<db::WalOp> ops;
      for (std::uint64_t k = base; k < base + batch && k < shadow_.size();
           ++k) {
        shadow_[k] = rng_.Next() | 1;
        ops.push_back({db::WalOp::Kind::kPut, k, shadow_[k]});
      }
      m_->CommitBatch(std::move(ops), status_cb());
      Wait();
      if (++txns % checkpoint_every == 0) Checkpoint();
    }
    Checkpoint();
  }

  /// `ops` single-op transactions: 50% Get, 40% Put, 10% Delete, with a
  /// checkpoint every `checkpoint_every` ops.
  void Mix(std::uint64_t ops, std::uint64_t checkpoint_every) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::uint64_t key = rng_.Uniform(shadow_.size());
      const std::uint64_t dice = rng_.Uniform(100);
      if (dice < 50) {
        m_->Get(key, [this](StatusOr<std::uint64_t> r) {
          got_ = r.ok() ? *r : 0;
          get_ok_ = r.ok() || r.status().IsNotFound();
          done_ = true;
        });
        Wait();
        if (!get_ok_ || got_ != shadow_[key]) ++wrong_;
      } else if (dice < 90) {
        const std::uint64_t value = rng_.Next() | 1;
        m_->Put(key, value, status_cb());
        Wait();
        shadow_[key] = value;
      } else {
        m_->Delete(key, status_cb());
        Wait();
        shadow_[key] = 0;
      }
      if (i % checkpoint_every == checkpoint_every - 1) Checkpoint();
    }
  }

  std::uint64_t failures() const { return failures_; }
  std::uint64_t wrong() const { return wrong_; }

 private:
  db::StorageManager::StatusCb status_cb() {
    return [this](Status st) {
      if (!st.ok()) ++failures_;
      done_ = true;
    };
  }
  void Checkpoint() {
    m_->Checkpoint(status_cb());
    Wait();
  }
  void Wait() {
    if (!sim_->RunUntilPredicate([this] { return done_; })) ++failures_;
    done_ = false;
  }

  sim::Simulator* sim_;
  db::StorageManager* m_;
  Rng rng_{7};
  std::vector<std::uint64_t> shadow_;  // 0 = absent
  bool done_ = false;
  bool get_ok_ = false;
  std::uint64_t got_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t wrong_ = 0;
};

TEST(AllocContractTest, VisionStorageManagerOverAppendDevice) {
  // A tree larger than the 256-frame pool, so Gets miss and checkpoints
  // write back pages scattered over the whole tree.
  constexpr std::uint64_t kKeys = 60'000;
  constexpr std::uint64_t kOps = 10'000;
  constexpr std::uint64_t kCheckpointEvery = 100;
  sim::Simulator sim;
  Config config = Config::Small();
  config.ftl = FtlKind::kVisionAppend;
  Device dev(&sim, config);
  db::StorageConfig sc;
  sc.wiring = db::Wiring::kVision;
  sc.buffer_frames = 256;
  db::StorageManager m(&sim, &dev, sc);
  ASSERT_NE(m.host_map(), nullptr);
  DbDriver driver(&sim, &m, kKeys);
  driver.Bootstrap();
  driver.BulkLoad(100, 20);
  driver.Mix(kOps, kCheckpointEvery);  // warm every pool and free list

  const Counters& bp = m.buffer_pool()->counters();
  const std::uint64_t misses0 = bp.Get("misses");
  const std::uint64_t writebacks0 = bp.Get("writebacks");
  const sim::CallbackSlab::Stats slab0 = sim::CallbackSlab::stats();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  driver.Mix(kOps, kCheckpointEvery);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs0;
  const sim::CallbackSlab::Stats slab1 = sim::CallbackSlab::stats();

  EXPECT_EQ(driver.failures(), 0u);
  EXPECT_EQ(driver.wrong(), 0u);
  ASSERT_GT(bp.Get("misses") - misses0, kOps / 4) << "the tree fits the pool";
  ASSERT_GT(bp.Get("writebacks") - writebacks0, kOps / 10)
      << "checkpoints wrote nothing back";
  // 2.49 per op (from 27 when every DB continuation was a std::function
  // and every page miss grew the frame and LRU maps): a miss's result
  // token vector, and per written-back page its image, its tagged write
  // command's token vector and the name the write returns.
  EXPECT_LE(allocs, kOps * 5 / 2)
      << static_cast<double>(allocs) / kOps << " allocations per op";
  EXPECT_EQ(slab1.oversize_allocs, slab0.oversize_allocs);
  EXPECT_EQ(slab1.chunk_allocs, slab0.chunk_allocs);
  EXPECT_EQ(slab1.chunk_reuses, slab0.chunk_reuses)
      << "a DB-path continuation spilled out of its inline buffer";
}

}  // namespace
}  // namespace postblock::ssd
