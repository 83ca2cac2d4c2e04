#ifndef POSTBLOCK_SIM_EVENT_QUEUE_H_
#define POSTBLOCK_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/inplace_callback.h"

namespace postblock::sim {

/// A time-ordered queue of callbacks. Ties (equal timestamps) fire in
/// insertion order, which makes whole-simulation runs deterministic.
///
/// Implemented as a hierarchical timing wheel over small keys. Each
/// callback is built once into a slot of a queue-owned arena and moved
/// out once by Pop; the wheel itself only moves 24-byte {when, seq,
/// slot} keys. Levels 1..kLevels-1 hold kSlots slots each, level L
/// slots spanning 64^L ns. The finest level is one sorted run: the keys
/// of the wheel position's 64 ns block, ordered by (when, seq) and
/// drained front to back. Entering a block cascades the one occupied
/// slot covering it, moving the block's keys into the run, and sorts
/// the run once; a Push into the current block inserts by (when, seq),
/// which is an append in the common case.
/// Push and Pop are O(1) amortized (a key cascades at most kLevels-1
/// times; an in-block push that is not an append moves the shorter
/// side of the run by one key), and slot buffers, the run and the
/// arena are recycled, so the steady state allocates nothing per event.
/// Events beyond the wheel horizon (~69 simulated seconds ahead)
/// overflow into a sorted map and are fed back into the wheel as time
/// advances.
///
/// Contract: timestamps must not go backwards — Push(when) with `when`
/// earlier than the wheel position is clamped to it (the same clamp
/// Simulator applies against Now()). The wheel position advances to a
/// timestamp only when NextTime() commits to it or HasEventAtOrBefore()
/// clears a bound at or past it, so a deadline-bounded caller
/// (Simulator::RunUntil) can keep scheduling between its deadline and a
/// far-future pending event without hitting the clamp. The pop order is
/// exactly (when, push order), bit-identical to a binary heap keyed on
/// (when, seq); tests/event_queue_determinism_test.cc holds the two
/// implementations to that.
class EventQueue {
 public:
  using Callback = InplaceCallback;

  static constexpr int kSlotBits = 6;
  static constexpr std::uint64_t kSlots = 1ull << kSlotBits;
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  static constexpr int kLevels = 6;  // the run plus kLevels-1 wheel levels

  EventQueue();

  /// Enqueues `f` at `when` (clamped to the wheel position, i.e. never
  /// earlier than the last popped timestamp).
  /// Templated so the callback is constructed directly inside its arena
  /// slot — no intermediate InplaceCallback moves on the push path.
  template <typename F>
  void Push(SimTime when, F&& f) {
    if (when < cur_) when = cur_;  // same clamp Simulator applies vs Now()
    Place(Key{when, next_seq_++, Store(std::forward<F>(f))});
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Timestamp of the earliest pending event. Requires !empty().
  /// Advances internal wheel cursors (cascading coarse slots down), so
  /// it is not const; the observable pop sequence is unaffected.
  /// Commits the wheel position to the returned timestamp: a subsequent
  /// Push below it clamps up to it. Callers that only want to know
  /// whether anything is due by a deadline must use HasEventAtOrBefore.
  SimTime NextTime() {
    if (run_pos_ < run_.size()) return cur_ = run_[run_pos_].when;
    return WalkToNext();
  }

  /// True iff the earliest pending event's timestamp is <= `bound`
  /// (false on an empty queue). Unlike NextTime(), never advances the
  /// wheel position past `bound`, so after a false return every
  /// Push(when) with `when` >= `bound` keeps its exact timestamp even
  /// if it precedes all pending events — the peek Simulator::RunUntil
  /// needs so work scheduled after the deadline is not deferred to (and
  /// reordered after) a stale far-future event. A true return commits
  /// the wheel position to the earliest event, as NextTime() does.
  bool HasEventAtOrBefore(SimTime bound);

  /// Removes and returns the earliest event's callback. Requires
  /// !empty(). Right after NextTime() or a true HasEventAtOrBefore()
  /// the earliest event is the head of the run, so Pop takes it there
  /// without walking the wheel again.
  Callback Pop() {
    if (run_pos_ == run_.size()) WalkToNext();
    const Key& k = run_[run_pos_];
    cur_ = k.when;
    Stored& s = arena_[k.slot];
    Callback cb = std::move(s.cb);
    s.next_free = free_head_;
    free_head_ = k.slot;
    if (++run_pos_ == run_.size()) {
      run_.clear();  // capacity retained for the next block
      run_pos_ = 0;
    }
    --size_;
    return cb;
  }

  /// Timestamp of the earliest pending event, computed without moving
  /// the wheel position (a pure read — unlike NextTime(), a later
  /// Push(when) below the returned value is NOT clamped to it). The
  /// sharded engine's rendezvous uses this to pick the next window
  /// start across shards without committing any shard's wheel.
  /// Requires !empty(). Cost: the run's head, or one scan of the
  /// finest occupied slot when the run is empty.
  SimTime MinPendingTime() const;

 private:
  /// What the wheel, the run and the overflow map hold; the callback
  /// stays in arena_[slot] from Push to Pop.
  struct Key {
    SimTime when;
    std::uint64_t seq;  // insertion order, breaks timestamp ties
    std::uint32_t slot;
  };
  struct Stored {
    Callback cb;
    std::uint32_t next_free = kNoSlot;  // free-list link while unused
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  static bool Before(const Key& a, const Key& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  /// Builds `f` into a free arena slot. The arena and its free list
  /// grow to the high-water mark of pending events and are never
  /// shrunk.
  template <typename F>
  std::uint32_t Store(F&& f) {
    std::uint32_t i = free_head_;
    if (i != kNoSlot) {
      free_head_ = arena_[i].next_free;
    } else {
      i = static_cast<std::uint32_t>(arena_.size());
      arena_.emplace_back();
    }
    Callback& cb = arena_[i].cb;  // empty: moved out by Pop, or new
    std::destroy_at(&cb);
    std::construct_at(&cb, std::forward<F>(f));
    return i;
  }

  std::vector<Key>& WheelSlot(int level, unsigned idx) {
    return wheel_[level - 1][idx];
  }
  std::uint64_t& Occupied(int level) { return occupied_[level - 1]; }

  void Place(const Key& k);
  void InsertIntoRun(const Key& k);
  void EnterBlock(SimTime t, int level, unsigned idx);
  /// True iff no slot covering `t` is occupied except the one at
  /// `level` (EnterBlock's precondition; checked in debug builds).
  bool OnlyCoveringSlot(SimTime t, int level) const;
  void PullOverflowBlock();
  bool AdvanceWithin(SimTime bound, SimTime* when);
  SimTime WalkToNext();

  std::vector<Stored> arena_;
  std::uint32_t free_head_ = kNoSlot;

  /// Keys of cur_'s 64 ns block, sorted by (when, seq); [0, run_pos_)
  /// is already popped.
  std::vector<Key> run_;
  std::size_t run_pos_ = 0;
  std::vector<Key> wheel_[kLevels - 1][kSlots];  // levels 1..kLevels-1
  /// Emptied buffers of cascaded slots, taken by slots that have none
  /// yet (see EnterBlock).
  std::vector<std::vector<Key>> spare_;
  std::uint64_t occupied_[kLevels - 1] = {};  // bitmap of nonempty slots
  /// Far-future events, keyed by timestamp; vectors hold push order.
  std::map<SimTime, std::vector<Key>> overflow_;

  SimTime cur_ = 0;  // wheel position (<= earliest pending when)
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace postblock::sim

#endif  // POSTBLOCK_SIM_EVENT_QUEUE_H_
