#ifndef POSTBLOCK_SIM_EVENT_QUEUE_H_
#define POSTBLOCK_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"
#include "sim/inplace_callback.h"

namespace postblock::sim {

/// A time-ordered queue of callbacks. Ties (equal timestamps) fire in
/// insertion order, which makes whole-simulation runs deterministic.
///
/// Implemented as a hierarchical timing wheel: kLevels levels of kSlots
/// slots each, 1 ns tick at level 0, each level kSlots times coarser
/// than the one below. Push and Pop are O(1) amortized (an event
/// cascades down at most kLevels-1 times over its lifetime) versus
/// O(log n) for a binary heap, and slot buffers are kept (level 0) or
/// recycled between coarse slots, so the steady state allocates nothing
/// per event. Events beyond the
/// wheel horizon (~69 simulated seconds ahead) overflow into a sorted
/// map and are fed back into the wheel as time advances.
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
  static constexpr int kLevels = 6;

  EventQueue();

  /// Enqueues `f` at `when` (clamped to the wheel position, i.e. never
  /// earlier than the last popped timestamp).
  /// Templated so the callback is constructed directly inside the slot
  /// entry — no intermediate InplaceCallback moves on the push path.
  template <typename F>
  void Push(SimTime when, F&& f) {
    if (when < cur_) when = cur_;  // same clamp Simulator applies vs Now()
    Place(Entry{when, next_seq_++, std::forward<F>(f)});
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
  SimTime NextTime();

  /// True iff the earliest pending event's timestamp is <= `bound`
  /// (false on an empty queue). Unlike NextTime(), never advances the
  /// wheel position past `bound`, so after a false return every
  /// Push(when) with `when` >= `bound` keeps its exact timestamp even
  /// if it precedes all pending events — the peek Simulator::RunUntil
  /// needs so work scheduled after the deadline is not deferred to (and
  /// reordered after) a stale far-future event.
  bool HasEventAtOrBefore(SimTime bound);

  /// Removes and returns the earliest event's callback. Requires !empty().
  Callback Pop();

  /// Timestamp of the earliest pending event, computed without moving
  /// the wheel position (a pure read — unlike NextTime(), a later
  /// Push(when) below the returned value is NOT clamped to it). The
  /// sharded engine's rendezvous uses this to pick the next window
  /// start across shards without committing any shard's wheel.
  /// Requires !empty(). Cost: one scan of the finest occupied slot.
  SimTime MinPendingTime() const;

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;  // insertion order, breaks timestamp ties
    Callback cb;
  };

  /// Bits above level L's slot index: equal for cur_ and `t` iff `t`
  /// belongs in level <= L of the current wheel position.
  static constexpr std::uint64_t HighBits(SimTime t, int level) {
    return t >> (kSlotBits * (level + 1));
  }

  void Place(Entry e);
  void CascadeSlot(int level, unsigned idx);
  void PullOverflowBlock();
  void EnsureDrainSlotSorted(std::vector<Entry>& slot);
  bool AdvanceWithin(SimTime bound, SimTime* when);

  std::vector<Entry> slots_[kLevels][kSlots];
  /// Emptied buffers of cascaded coarse slots, taken by slots that have
  /// none yet (see CascadeSlot).
  std::vector<std::vector<Entry>> spare_;
  std::uint64_t occupied_[kLevels] = {};  // bitmap of nonempty slots
  /// Far-future events, keyed by timestamp; vectors hold push order.
  std::map<SimTime, std::vector<Entry>> overflow_;

  SimTime cur_ = 0;           // wheel position (<= earliest pending when)
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t drain_pos_ = 0;  // next entry in the level-0 slot at cur_
  SimTime sorted_slot_time_ = ~SimTime{0};  // slot already seq-sorted
  /// Level-0 block (cur_ >> kSlotBits) whose covering slots have been
  /// cascaded. Place() never targets a covering slot of the current
  /// position, so the cascade scan only needs to rerun when the wheel
  /// enters a new block — not on every NextTime() call.
  std::uint64_t cascaded_block_ = ~std::uint64_t{0};
};

}  // namespace postblock::sim

#endif  // POSTBLOCK_SIM_EVENT_QUEUE_H_
