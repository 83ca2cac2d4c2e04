// Property test: the timing-wheel EventQueue must pop the exact (time,
// insertion-order) sequence of the original binary-heap implementation,
// kept as ReferenceEventQueue. This is the determinism contract the
// whole repo leans on — every bench's final Now() and stats are only
// reproducible if the event core's tie-breaks never change.

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/reference_event_queue.h"

namespace postblock::sim {
namespace {

constexpr SimTime kHorizon = 1ull << 36;  // 64^6 ns: wheel coverage

struct PopRecord {
  SimTime when;
  std::uint64_t id;
  bool operator==(const PopRecord&) const = default;
};

/// Delay mixture covering every queue path: heavy same-timestamp ties,
/// short and medium delays across wheel levels, and a tail past the
/// wheel horizon that must overflow into the sorted map.
SimTime DrawDelay(std::mt19937_64& rng) {
  switch (rng() % 100) {
    case 0:  // beyond the horizon: overflow map
      return kHorizon + rng() % (2 * kHorizon);
    case 1:
    case 2:  // coarse levels
      return rng() % (kHorizon / 4);
    default: {
      const auto r = rng() % 97;
      if (r < 30) return 0;  // same-timestamp burst
      if (r < 70) return rng() % 256;
      return rng() % 1'000'000;
    }
  }
}

/// Short delays only: most pushes land in the 64 ns block being drained
/// (the sorted run), the rest in the next few level-1 slots.
SimTime DrawNearDelay(std::mt19937_64& rng) {
  const auto r = rng() % 8;
  if (r < 2) return 0;
  if (r < 7) return 1 + rng() % 63;
  return rng() % 512;
}

/// Optional paths on top of the base interleaving. All off reproduces
/// the original interleaving draw for draw.
struct Variation {
  /// After a true bounded peek, pop without calling NextTime() first —
  /// the committed-pop path Simulator::Step takes after RunUntil's peek.
  bool pop_after_peek = false;
  /// Some pops call Pop() with no peek at all.
  bool bare_pops = false;
  /// Check MinPendingTime() at random points, then push one event
  /// strictly below it and require that event to keep its timestamp.
  bool min_pending = false;
  /// Draw push delays from DrawNearDelay and bounded-peek bounds a few
  /// ns ahead, so pushes keep landing inside the block being drained.
  bool near = false;
};

/// Drives both queues through an identical randomized push/pop
/// interleaving and compares the full (when, id) pop sequences.
void RunInterleaving(std::uint64_t seed, std::uint64_t pushes,
                     Variation var = {}) {
  std::mt19937_64 rng(seed);
  EventQueue wheel;
  ReferenceEventQueue ref;
  std::vector<PopRecord> wheel_log, ref_log;
  wheel_log.reserve(pushes);
  ref_log.reserve(pushes);

  SimTime now = 0;  // time of the most recently popped event
  std::uint64_t next_id = 0;
  std::uint64_t pushed = 0;

  const auto push_both = [&](SimTime when) {
    const std::uint64_t id = next_id++;
    wheel.Push(when, [&wheel_log, when, id] {
      wheel_log.push_back({when, id});
    });
    ref.Push(when, [&ref_log, when, id] {
      ref_log.push_back({when, id});
    });
    ++pushed;
  };
  // `peek` false: the queue's position is already committed to the
  // earliest event, so Pop() must take it without a NextTime() call.
  const auto pop_both = [&](bool peek) {
    const SimTime tr = ref.NextTime();
    if (peek) {
      const SimTime tw = wheel.NextTime();
      ASSERT_EQ(tw, tr) << "NextTime diverged after "
                        << wheel_log.size() << " pops";
    }
    now = tr;
    auto wcb = wheel.Pop();
    auto rcb = ref.Pop();
    wcb();
    rcb();
    ASSERT_EQ(wheel_log.back(), ref_log.back())
        << "pop " << wheel_log.size() << " diverged";
  };
  const auto delay = [&] {
    return var.near ? DrawNearDelay(rng) : DrawDelay(rng);
  };

  while (pushed < pushes || !wheel.empty()) {
    if (var.min_pending && !wheel.empty() && rng() % 8 == 0) {
      const SimTime m = wheel.MinPendingTime();
      ASSERT_EQ(m, ref.NextTime()) << "MinPendingTime diverged after "
                                   << wheel_log.size() << " pops";
      // A pure read: a push below it must pop at its own timestamp
      // (the pop-sequence comparison checks it does).
      if (m > now && pushed < pushes) push_both(now + rng() % (m - now));
    }
    if (rng() % 16 == 0) {
      // Deadline-bounded peek, as Simulator::RunUntil issues. Both
      // implementations must agree; on a hit RunUntil pops the event,
      // on a miss it advances the clock to the deadline — mirror both,
      // so later pushes may land *before* the earliest pending event
      // (but at/after the cleared bound) and must still pop at their
      // own timestamps, which the sequence comparison verifies.
      const SimTime bound = now + delay();
      const bool due = wheel.HasEventAtOrBefore(bound);
      ASSERT_EQ(due, ref.HasEventAtOrBefore(bound))
          << "bounded peek diverged after " << wheel_log.size()
          << " pops (bound " << bound << ")";
      if (due) {
        ASSERT_NO_FATAL_FAILURE(pop_both(!var.pop_after_peek));
        continue;
      }
      now = bound;
    }
    const bool can_push = pushed < pushes;
    const bool must_pop = !can_push || wheel.size() > 50'000;
    if (!must_pop && (wheel.empty() || rng() % 3 != 0)) {
      // Timestamps never precede the last popped event, mirroring how
      // Simulator only schedules relative to Now().
      push_both(now + delay());
    } else {
      ASSERT_NO_FATAL_FAILURE(
          pop_both(!(var.bare_pops && rng() % 2 == 0)));
    }
  }

  ASSERT_TRUE(ref.empty());
  ASSERT_EQ(wheel_log.size(), pushes);
  ASSERT_EQ(wheel_log, ref_log) << "pop sequences diverged (seed "
                                << seed << ")";
}

TEST(EventQueueDeterminismTest, MillionRandomizedPushesMatchReference) {
  RunInterleaving(/*seed=*/0x5eed'0001, /*pushes=*/1'000'000);
}

TEST(EventQueueDeterminismTest, MoreSeedsSmallerRuns) {
  for (std::uint64_t seed : {42ull, 7ull, 0xdeadbeefull}) {
    RunInterleaving(seed, /*pushes=*/50'000);
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueDeterminismTest, CommittedPopPathMatchesReference) {
  // Pops right after a true bounded peek skip NextTime(), and some pops
  // have no peek at all: both must take the same event NextTime() would.
  for (std::uint64_t seed : {11ull, 12ull}) {
    RunInterleaving(seed, /*pushes=*/100'000,
                    {.pop_after_peek = true, .bare_pops = true});
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueDeterminismTest, MinPendingTimeAtRandomPointsIsPure) {
  for (std::uint64_t seed : {21ull, 22ull}) {
    RunInterleaving(seed, /*pushes=*/100'000, {.min_pending = true});
    if (HasFatalFailure()) return;
    RunInterleaving(seed, /*pushes=*/50'000,
                    {.min_pending = true, .near = true});
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueDeterminismTest, PushesInsideTheDrainedBlockMatchReference) {
  // Delays of 0-63 ns with frequent bounded peeks a few ns ahead: pushes
  // land in the block being drained, often before its pending keys and
  // right after a peek that entered the block but found nothing due.
  for (std::uint64_t seed : {31ull, 32ull, 33ull}) {
    RunInterleaving(seed, /*pushes=*/200'000,
                    {.pop_after_peek = true, .near = true});
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueDeterminismTest, InBlockPushAfterFalsePeekPopsBeforePending) {
  EventQueue q;
  std::vector<SimTime> order;
  const auto push = [&](SimTime t) {
    q.Push(t, [&order, t] { order.push_back(t); });
  };
  push(1020);
  push(1010);
  // Enters block [960, 1024) (cur = 960) but nothing is due by 965.
  EXPECT_FALSE(q.HasEventAtOrBefore(965));
  // 1-63 ns ahead of the position, before both pending keys, including
  // a tie with one of them (a tie pops in push order: after it).
  for (SimTime t : {1009u, 961u, 1010u, 1023u, 962u}) push(t);
  EXPECT_EQ(q.MinPendingTime(), 961u);
  while (!q.empty()) q.Pop()();
  EXPECT_EQ(order, (std::vector<SimTime>{961, 962, 1009, 1010, 1010, 1020,
                                         1023}));
}

TEST(EventQueueDeterminismTest, BlockFedByCascadeAndInsertsPopsInOrder) {
  // One 64 ns block whose run is assembled from every path: keys pushed
  // from far away (cascaded down from levels 2 and 3, pushed out of
  // time order), keys pushed from the block before it (level 1), and
  // keys inserted into the non-empty run after entering it. Ties across
  // paths must pop in push order.
  EventQueue q;
  ReferenceEventQueue ref;
  std::vector<PopRecord> got, want;
  std::uint64_t next_id = 0;
  const auto push = [&](SimTime t) {
    const std::uint64_t id = next_id++;
    q.Push(t, [&got, t, id] { got.push_back({t, id}); });
    ref.Push(t, [&want, t, id] { want.push_back({t, id}); });
  };
  const SimTime block = 4688 * 64;  // level 3 from 0; level 1 from block-1
  for (SimTime off : {40u, 3u, 40u, 63u, 3u}) push(block + off);
  push(block - 1);  // the last event before the block, pushed last
  ASSERT_EQ(q.NextTime(), block - 1);
  ASSERT_EQ(ref.NextTime(), block - 1);
  q.Pop()();
  ref.Pop()();
  for (SimTime off : {3u, 62u, 40u}) push(block + off);
  // Enters the block (its base is due) but its first key is not.
  EXPECT_FALSE(q.HasEventAtOrBefore(block));
  EXPECT_FALSE(ref.HasEventAtOrBefore(block));
  for (SimTime off : {1u, 40u, 3u, 63u, 0u}) push(block + off);
  while (!ref.empty()) {
    ASSERT_EQ(q.NextTime(), ref.NextTime());
    q.Pop()();
    ref.Pop()();
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(got, want);
}

TEST(EventQueueDeterminismTest, ArenaSlotsReusedWithFiftyThousandPending) {
  // Keep ~50k events pending while cycling a further 300k through, so
  // freed arena slots are reused many times over. Captures of three
  // kinds ride along: trivially relocatable, one that needs its move
  // constructor (a vector) and one too large for the inline buffer
  // (boxed). Each must reach its own event intact.
  std::mt19937_64 rng(0xa7e4a);
  EventQueue q;
  ReferenceEventQueue ref;
  std::vector<PopRecord> got, want;
  std::uint64_t next_id = 0;
  SimTime now = 0;
  std::uint64_t corrupt = 0;
  const auto push = [&] {
    const SimTime t = now + rng() % 200'000;
    const std::uint64_t id = next_id++;
    switch (id % 3) {
      case 0:
        q.Push(t, [&got, t, id] { got.push_back({t, id}); });
        break;
      case 1:
        q.Push(t, [&got, &corrupt, t, id,
                   v = std::vector<std::uint64_t>(3, id)] {
          if (v != std::vector<std::uint64_t>(3, id)) ++corrupt;
          got.push_back({t, id});
        });
        break;
      default: {
        std::array<std::uint64_t, 8> big;
        big.fill(id);
        q.Push(t, [&got, &corrupt, t, id, big] {
          for (std::uint64_t x : big) corrupt += x != id;
          got.push_back({t, id});
        });
      }
    }
    ref.Push(t, [&want, t, id] { want.push_back({t, id}); });
  };
  const auto pop = [&] {
    now = ref.NextTime();
    ASSERT_EQ(q.NextTime(), now);
    q.Pop()();
    ref.Pop()();
  };
  for (int i = 0; i < 50'000; ++i) push();
  for (int i = 0; i < 300'000; ++i) {
    ASSERT_NO_FATAL_FAILURE(pop());
    push();
  }
  while (!ref.empty()) ASSERT_NO_FATAL_FAILURE(pop());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(corrupt, 0u);
  EXPECT_EQ(got, want);
}

TEST(EventQueueDeterminismTest, LongSameBlockRunStaysLinear) {
  // 100k keys pending at the end of the current 64 ns block while a
  // zero-delay chain pushes and pops 1M events ahead of them, then a
  // 1M-event same-timestamp burst. Each push lands before the whole
  // pending tail, so an insert that shifts the tail (or a pop that
  // erases from the front) would move ~10^11 keys and time out.
  EventQueue q;
  std::uint64_t tail_seen = 0;
  std::uint64_t chain_out_of_order = 0;
  for (int i = 0; i < 100'000; ++i) {
    q.Push(63, [&tail_seen] { ++tail_seen; });
  }
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 1'000'000; ++i) {
    q.Push(0, [&expect, &chain_out_of_order, i] {
      chain_out_of_order += expect++ != i;
    });
    ASSERT_EQ(q.NextTime(), 0u);
    q.Pop()();
  }
  EXPECT_EQ(chain_out_of_order, 0u);
  EXPECT_EQ(tail_seen, 0u);
  EXPECT_EQ(q.size(), 100'000u);

  expect = 0;
  for (std::uint64_t i = 0; i < 1'000'000; ++i) {
    q.Push(63, [&expect, &chain_out_of_order, i] {
      chain_out_of_order += expect++ != i;
    });
  }
  while (!q.empty()) {
    ASSERT_EQ(q.NextTime(), 63u);
    q.Pop()();
  }
  EXPECT_EQ(tail_seen, 100'000u);
  EXPECT_EQ(chain_out_of_order, 0u);
  EXPECT_EQ(expect, 1'000'000u);
}

TEST(EventQueueDeterminismTest, SameTimestampBurstPopsInPushOrder) {
  EventQueue q;
  std::vector<std::uint64_t> order;
  for (std::uint64_t id = 0; id < 1000; ++id) {
    q.Push(500, [&order, id] { order.push_back(id); });
  }
  while (!q.empty()) {
    EXPECT_EQ(q.NextTime(), 500u);
    q.Pop()();
  }
  for (std::uint64_t id = 0; id < order.size(); ++id) {
    ASSERT_EQ(order[id], id);
  }
}

TEST(EventQueueDeterminismTest, FarFutureEventsKeepPushOrderTies) {
  // Two events past the horizon at the same timestamp, pushed around a
  // near event: overflow handling must preserve push order on the tie.
  EventQueue q;
  std::vector<int> order;
  const SimTime far = 3 * kHorizon + 17;
  q.Push(far, [&order] { order.push_back(1); });
  q.Push(5, [&order] { order.push_back(0); });
  q.Push(far, [&order] { order.push_back(2); });
  while (!q.empty()) q.Pop()();
  ASSERT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueDeterminismTest, PastPushClampsToLastPoppedTime) {
  EventQueue q;
  SimTime seen = 0;
  q.Push(100, [] {});
  EXPECT_EQ(q.NextTime(), 100u);
  q.Pop()();
  q.Push(10, [&q, &seen] { seen = q.size(); });  // in the past: clamps
  EXPECT_EQ(q.NextTime(), 100u);
  q.Pop()();
  EXPECT_EQ(seen, 0u);
}

TEST(EventQueueDeterminismTest, BoundedPeekThenEarlierPushPopsAtOwnTime) {
  // Regression: a deadline peek that misses must not commit the wheel
  // to the far-future pending event — an event pushed afterwards at an
  // earlier timestamp has to pop first, at its own time, not be
  // silently deferred onto the stale event.
  EventQueue q;
  std::vector<SimTime> order;
  q.Push(1000, [&order] { order.push_back(1000); });
  EXPECT_FALSE(q.HasEventAtOrBefore(10));
  q.Push(100, [&order] { order.push_back(100); });
  EXPECT_EQ(q.NextTime(), 100u);
  q.Pop()();
  EXPECT_EQ(q.NextTime(), 1000u);
  q.Pop()();
  EXPECT_EQ(order, (std::vector<SimTime>{100, 1000}));
}

TEST(EventQueueDeterminismTest, BoundedPeekAgainstOverflowEvent) {
  // Same property when the only pending event sits in the overflow map:
  // the miss must not pull the overflow block into the wheel.
  EventQueue q;
  std::vector<SimTime> order;
  const SimTime far = 2 * kHorizon + 5;
  q.Push(far, [&order, far] { order.push_back(far); });
  EXPECT_FALSE(q.HasEventAtOrBefore(1'000'000));
  q.Push(1'000'000, [&order] { order.push_back(1'000'000); });
  EXPECT_EQ(q.NextTime(), 1'000'000u);
  q.Pop()();
  EXPECT_EQ(q.NextTime(), far);
  q.Pop()();
  EXPECT_EQ(order, (std::vector<SimTime>{1'000'000, far}));
}

TEST(EventQueueDeterminismTest, BoundedPeekPartialAdvanceKeepsLaterPushExact) {
  // A miss may legitimately advance the wheel through intermediate slot
  // hops that stay at or below the bound; pushes at/after the bound
  // must still land exactly.
  EventQueue q;
  std::vector<SimTime> order;
  q.Push(970, [&order] { order.push_back(970); });
  EXPECT_FALSE(q.HasEventAtOrBefore(965));  // hops to slot base 960
  q.Push(966, [&order] { order.push_back(966); });
  EXPECT_TRUE(q.HasEventAtOrBefore(966));
  EXPECT_EQ(q.NextTime(), 966u);
  q.Pop()();
  q.Pop()();
  EXPECT_EQ(order, (std::vector<SimTime>{966, 970}));
}

TEST(EventQueueDeterminismTest, NextTimeIsIdempotent) {
  // NextTime advances internal cursors; repeated calls must still
  // report the same timestamp until the event is popped.
  EventQueue q;
  q.Push(2 * kHorizon + 3, [] {});  // overflow path
  q.Push(4096, [] {});              // coarse level
  EXPECT_EQ(q.NextTime(), 4096u);
  EXPECT_EQ(q.NextTime(), 4096u);
  q.Pop()();
  EXPECT_EQ(q.NextTime(), 2 * kHorizon + 3);
  EXPECT_EQ(q.NextTime(), 2 * kHorizon + 3);
}

}  // namespace
}  // namespace postblock::sim
