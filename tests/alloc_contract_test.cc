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

}  // namespace
}  // namespace postblock::ssd
