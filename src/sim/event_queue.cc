#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace postblock::sim {

EventQueue::EventQueue() = default;

/// Canonical placement: the finest level whose block (the bits above the
/// level's slot index) contains both `k.when` and the wheel position,
/// found with one bit-scan of their difference. Level 0 is the run;
/// events past the coarsest level's block go to the overflow map.
/// Requires k.when >= cur_.
void EventQueue::Place(const Key& k) {
  const std::uint64_t diff = k.when ^ cur_;
  if (diff < kSlots) {
    InsertIntoRun(k);
    return;
  }
  const int level = (63 - std::countl_zero(diff)) / kSlotBits;
  if (level >= kLevels) {
    overflow_[k.when].push_back(k);
    return;
  }
  const unsigned idx =
      static_cast<unsigned>((k.when >> (kSlotBits * level)) & kSlotMask);
  std::vector<Key>& slot = WheelSlot(level, idx);
  if (slot.capacity() == 0 && !spare_.empty()) {
    slot.swap(spare_.back());
    spare_.pop_back();
  }
  slot.push_back(k);
  Occupied(level) |= 1ull << idx;
}

/// A push into the block being drained carries the largest seq so far,
/// so it goes after every pending key with when <= k.when. That is an
/// append unless an earlier-timestamped push arrives behind later ones;
/// then the shorter side moves by one key — the already-popped prefix
/// gives the front side room, so a zero-delay chain ahead of a long
/// tail of pending keys stays O(1) per push.
void EventQueue::InsertIntoRun(const Key& k) {
  if (run_pos_ == run_.size() || run_.back().when <= k.when) {
    run_.push_back(k);
    return;
  }
  const auto first = run_.begin() + static_cast<std::ptrdiff_t>(run_pos_);
  const auto pos = std::upper_bound(
      first, run_.end(), k.when,
      [](SimTime t, const Key& e) { return t < e.when; });
  if (run_pos_ > 0 && pos - first < run_.end() - pos) {
    std::move(first, pos, first - 1);
    *(pos - 1) = k;
    --run_pos_;
  } else {
    run_.insert(pos, k);
  }
}

/// Moves the wheel position to `t`, the base of slot `idx` at `level`,
/// the finest nonempty level, and fills the run with the keys of t's
/// 64 ns block. Only the run is empty when this happens, and this slot
/// is the only occupied one covering `t`: the finer levels are empty,
/// and the coarser covering slots are the old position's, which Place
/// never targets. Its keys for the block are appended to the run and
/// the rest move one or more levels down (never into a covering slot,
/// so never into the vector being iterated); the run is then sorted
/// once.
void EventQueue::EnterBlock(SimTime t, int level, unsigned idx) {
  assert(run_.empty());
  assert(OnlyCoveringSlot(t, level));
  cur_ = t;
  std::vector<Key>& slot = WheelSlot(level, idx);
  Occupied(level) &= ~(1ull << idx);
  for (const Key& k : slot) {
    if ((k.when ^ cur_) < kSlots) {
      run_.push_back(k);
    } else {
      Place(k);
    }
  }
  // The slot is next needed only when the wheel comes round again (up
  // to ~69 simulated seconds away at the top level): hand its buffer to
  // the next slot that fills up instead, so slots first reached late in
  // a run reuse capacity rather than allocate. The run keeps its own
  // buffer, so every buffer grows only to its own high-water mark.
  slot.clear();
  spare_.emplace_back();
  spare_.back().swap(slot);
  if (!std::is_sorted(run_.begin(), run_.end(), Before)) {
    std::sort(run_.begin(), run_.end(), Before);
  }
}

bool EventQueue::OnlyCoveringSlot(SimTime t, int level) const {
  for (int l = 1; l < kLevels; ++l) {
    const unsigned i =
        static_cast<unsigned>((t >> (kSlotBits * l)) & kSlotMask);
    if (l != level && (occupied_[l - 1] & (1ull << i)) != 0) return false;
  }
  return true;
}

/// Feeds the earliest overflow block into the (empty) wheel. The wheel
/// position's top-level block only ever changes here, which is what
/// keeps overflow entries from interleaving wrongly with wheel entries.
/// The map iterates in (when, push order), so keys reaching the run
/// arrive sorted.
void EventQueue::PullOverflowBlock() {
  assert(!overflow_.empty());
  auto it = overflow_.begin();
  constexpr int kTopShift = kSlotBits * kLevels;
  const std::uint64_t block = it->first >> kTopShift;
  const SimTime block_base = block << kTopShift;
  if (cur_ < block_base) cur_ = block_base;
  while (it != overflow_.end() && (it->first >> kTopShift) == block) {
    for (const Key& k : it->second) Place(k);
    it = overflow_.erase(it);
  }
}

/// Shared search core. Walks the wheel toward the earliest pending
/// event, but commits cur_ only to positions <= `bound`: if the
/// earliest event (or the next slot/overflow hop toward it) lies past
/// `bound`, returns false with cur_ untouched by that final hop. That
/// keeps a deadline-bounded peek from dragging the Push clamp forward
/// to a far-future event. Requires size_ > 0.
bool EventQueue::AdvanceWithin(SimTime bound, SimTime* when) {
  for (;;) {
    // 1) The run holds the current block's keys in pop order, and every
    //    key elsewhere is later, so its head is the earliest event.
    if (run_pos_ < run_.size()) {
      const SimTime t = run_[run_pos_].when;
      assert(t >= cur_);
      if (t > bound) return false;
      cur_ = t;
      *when = t;
      return true;
    }
    // 2) Enter the earliest occupied slot of the finest nonempty level
    //    (finer levels always precede coarser ones in time). The slot
    //    base is a lower bound on every event in it, so a base past
    //    `bound` proves nothing is due.
    bool advanced = false;
    for (int level = 1; level < kLevels; ++level) {
      const std::uint64_t occ = Occupied(level);
      if (occ == 0) continue;
      const unsigned idx = static_cast<unsigned>(std::countr_zero(occ));
      const int shift = kSlotBits * (level + 1);
      const SimTime target = ((cur_ >> shift) << shift) +
                             (SimTime{idx} << (kSlotBits * level));
      if (target > bound) return false;
      EnterBlock(target, level, idx);
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

SimTime EventQueue::WalkToNext() {
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
  if (run_pos_ < run_.size()) return run_[run_pos_].when;
  // Place() keeps a strict time hierarchy regardless of cascade state:
  // keys at level L live inside cur_'s level-L block but outside its
  // level-(L-1) block, so every key at a finer level precedes every key
  // at a coarser one, and the whole wheel precedes the overflow map.
  // Within one level, slots are time-ordered and each slot's span ends
  // before the next occupied slot begins — so the global minimum is in
  // the earliest occupied slot of the finest occupied level.
  for (int level = 1; level < kLevels; ++level) {
    const std::uint64_t occ = occupied_[level - 1];
    if (occ == 0) continue;
    const auto& slot =
        wheel_[level - 1][static_cast<unsigned>(std::countr_zero(occ))];
    SimTime m = ~SimTime{0};
    for (const Key& k : slot) m = std::min(m, k.when);
    return m;
  }
  return overflow_.begin()->first;
}

}  // namespace postblock::sim
