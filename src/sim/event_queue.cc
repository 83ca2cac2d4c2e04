#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace postblock::sim {

EventQueue::EventQueue() = default;

/// Canonical placement: the finest level whose block (the bits above the
/// level's slot index) contains both `e.when` and the wheel position.
/// Events past the coarsest level's block go to the overflow map.
void EventQueue::Place(Entry e) {
  for (int level = 0; level < kLevels; ++level) {
    if (HighBits(e.when, level) == HighBits(cur_, level)) {
      const unsigned idx = static_cast<unsigned>(
          (e.when >> (kSlotBits * level)) & kSlotMask);
      std::vector<Entry>& slot = slots_[level][idx];
      if (slot.capacity() == 0 && !spare_.empty()) {
        slot.swap(spare_.back());
        spare_.pop_back();
      }
      slot.push_back(std::move(e));
      occupied_[level] |= 1ull << idx;
      return;
    }
  }
  overflow_[e.when].push_back(std::move(e));
}

/// Moves every entry of a slot that covers cur_ down at least one level.
/// Only covering slots are ever cascaded, so re-placement can never
/// target the vector being iterated.
void EventQueue::CascadeSlot(int level, unsigned idx) {
  auto& v = slots_[level][idx];
  occupied_[level] &= ~(1ull << idx);
  for (Entry& e : v) Place(std::move(e));
  // A coarse slot is next needed only when the wheel comes round again
  // (up to ~69 simulated seconds away at the top level): hand its buffer
  // to the next slot that fills up instead, so slots first reached late
  // in a run reuse capacity rather than allocate.
  v.clear();
  spare_.emplace_back();
  spare_.back().swap(v);
}

/// Feeds the earliest overflow block into the (empty) wheel. The wheel
/// position's top-level block only ever changes here, which is what
/// keeps overflow entries from interleaving wrongly with wheel entries.
void EventQueue::PullOverflowBlock() {
  assert(!overflow_.empty());
  auto it = overflow_.begin();
  const std::uint64_t block = HighBits(it->first, kLevels - 1);
  const SimTime block_base = block << (kSlotBits * kLevels);
  if (cur_ < block_base) cur_ = block_base;
  while (it != overflow_.end() &&
         HighBits(it->first, kLevels - 1) == block) {
    for (Entry& e : it->second) Place(std::move(e));
    it = overflow_.erase(it);
  }
}

/// Entries in one level-0 slot all share a timestamp (1 ns tick), but
/// cascading can append an early-pushed far-scheduled event behind a
/// later-pushed near-scheduled one. Restore seq order once per slot
/// drain; events appended afterwards carry larger seqs and stay sorted.
void EventQueue::EnsureDrainSlotSorted(std::vector<Entry>& slot) {
  if (sorted_slot_time_ == cur_) return;
  assert(drain_pos_ == 0);
  const auto by_seq = [](const Entry& a, const Entry& b) {
    return a.seq < b.seq;
  };
  if (!std::is_sorted(slot.begin(), slot.end(), by_seq)) {
    std::sort(slot.begin(), slot.end(), by_seq);
  }
  sorted_slot_time_ = cur_;
}

/// Shared search core. Walks the wheel toward the earliest pending
/// event, but commits cur_ only to positions <= `bound`: if the
/// earliest event (or the next slot/overflow hop toward it) lies past
/// `bound`, returns false with cur_ untouched by that final hop. That
/// keeps a deadline-bounded peek from dragging the Push clamp forward
/// to a far-future event. Requires size_ > 0.
bool EventQueue::AdvanceWithin(SimTime bound, SimTime* when) {
  for (;;) {
    // 1) Cascade occupied slots covering cur_, coarsest first, so every
    //    event due in cur_'s level-0 block is actually at level 0. New
    //    pushes can never land in a covering slot (Place resolves them
    //    to a finer level), so one pass per level-0 block suffices.
    if ((cur_ >> kSlotBits) != cascaded_block_) {
      for (int level = kLevels - 1; level >= 1; --level) {
        const unsigned idx = static_cast<unsigned>(
            (cur_ >> (kSlotBits * level)) & kSlotMask);
        if (occupied_[level] & (1ull << idx)) CascadeSlot(level, idx);
      }
      cascaded_block_ = cur_ >> kSlotBits;
    }
    if (occupied_[0] != 0) {
      // Earliest pending event: all level-0 entries live in cur_'s
      // 64 ns block at slot (when & 63), so the lowest set bit is it.
      const unsigned idx =
          static_cast<unsigned>(std::countr_zero(occupied_[0]));
      const SimTime t = (cur_ & ~kSlotMask) | idx;
      assert(t >= cur_);
      if (t > bound) return false;
      cur_ = t;
      EnsureDrainSlotSorted(slots_[0][idx]);
      *when = t;
      return true;
    }
    // 2) Jump to the earliest future slot of the finest nonempty level
    //    (finer levels always precede coarser ones in time); the next
    //    pass cascades it as a covering slot. The slot base is a lower
    //    bound on every event in it, so a base past `bound` proves
    //    nothing is due.
    bool advanced = false;
    for (int level = 1; level < kLevels; ++level) {
      if (occupied_[level] == 0) continue;
      const unsigned idx =
          static_cast<unsigned>(std::countr_zero(occupied_[level]));
      const SimTime block_base = HighBits(cur_, level)
                                 << (kSlotBits * (level + 1));
      const SimTime target =
          block_base + (SimTime{idx} << (kSlotBits * level));
      if (target > bound) return false;
      cur_ = target;
      advanced = true;
      break;
    }
    if (advanced) continue;
    // 3) Wheel drained entirely: feed the next overflow block in — but
    //    not when even the earliest overflow event is past `bound`.
    if (overflow_.begin()->first > bound) return false;
    PullOverflowBlock();
  }
}

SimTime EventQueue::NextTime() {
  assert(size_ > 0);
  SimTime t = 0;
  const bool found = AdvanceWithin(~SimTime{0}, &t);
  assert(found);
  (void)found;
  return t;
}

bool EventQueue::HasEventAtOrBefore(SimTime bound) {
  if (size_ == 0) return false;
  SimTime t = 0;
  return AdvanceWithin(bound, &t);
}

SimTime EventQueue::MinPendingTime() const {
  assert(size_ > 0);
  // Place() keeps a strict time hierarchy regardless of cascade state:
  // entries at level L live inside cur_'s level-L block but outside its
  // level-(L-1) block, so every entry at a finer level precedes every
  // entry at a coarser one, and the whole wheel precedes the overflow
  // map. Within one level, slots are time-ordered and each slot's span
  // ends before the next occupied slot begins — so the global minimum
  // is in the earliest occupied slot of the finest occupied level.
  for (int level = 0; level < kLevels; ++level) {
    if (occupied_[level] == 0) continue;
    const unsigned idx =
        static_cast<unsigned>(std::countr_zero(occupied_[level]));
    if (level == 0) {
      // Level-0 entries in one slot share the 1 ns tick — exact.
      return (cur_ & ~kSlotMask) | idx;
    }
    const auto& slot = slots_[level][idx];
    SimTime m = ~SimTime{0};
    for (const Entry& e : slot) m = std::min(m, e.when);
    return m;
  }
  return overflow_.begin()->first;
}

EventQueue::Callback EventQueue::Pop() {
  const SimTime t = NextTime();
  auto& slot = slots_[0][t & kSlotMask];
  Callback cb = std::move(slot[drain_pos_].cb);
  ++drain_pos_;
  if (drain_pos_ == slot.size()) {
    slot.clear();  // entries already moved-from; capacity retained
    drain_pos_ = 0;
    occupied_[0] &= ~(1ull << (t & kSlotMask));
  }
  --size_;
  return cb;
}

}  // namespace postblock::sim
