#ifndef POSTBLOCK_SIM_SIMULATOR_H_
#define POSTBLOCK_SIM_SIMULATOR_H_

#include <cassert>
#include <cstdint>

#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/inplace_callback.h"

namespace postblock::sim {

/// Deterministic single-threaded discrete-event simulator. All devices
/// and host-side components in postblock share one Simulator; "wall
/// clock" in benches means Simulator::Now() at the end of a run.
///
/// Callbacks are InplaceCallback, not std::function: captures up to
/// InplaceCallback::kInlineBytes are stored inline in the event queue
/// entry, so the hot scheduling path performs no heap allocation.
class Simulator {
 public:
  using Callback = InplaceCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  /// Schedules a callable to run `delay` ns from now. Templated so the
  /// callable is forwarded all the way into the event-queue slot and
  /// constructed there once, with no intermediate Callback objects.
  template <typename F>
  void Schedule(SimTime delay, F&& f) {
    queue_.Push(now_ + delay, std::forward<F>(f));
  }

  /// Schedules a callable at an absolute timestamp. Scheduling in the
  /// past is a latent time bug: it asserts in debug builds; release
  /// builds clamp to Now() and count it in the sim.schedule_clamped stat.
  template <typename F>
  void ScheduleAt(SimTime when, F&& f) {
    assert(when >= now_ && "ScheduleAt: timestamp in the past");
    if (when < now_) {
      ++schedule_clamped_;
      when = now_;
    }
    queue_.Push(when, std::forward<F>(f));
  }

  /// Runs events until the queue drains. Returns the final time.
  SimTime Run();

  /// Runs events with timestamp <= deadline; leaves later events queued.
  /// The clock is advanced to `deadline` even if the queue drains early.
  /// Work scheduled after RunUntil returns keeps its exact timestamp
  /// even when it lands before the earliest still-pending event (the
  /// deadline check uses a bounded peek that never commits the event
  /// queue past `deadline`).
  SimTime RunUntil(SimTime deadline);

  /// Runs until `pred()` becomes true (checked after each event) or the
  /// queue drains. Returns true iff the predicate was satisfied.
  /// Templated so the per-event check is a direct (inlinable) call.
  template <typename Pred>
  bool RunUntilPredicate(Pred&& pred) {
    if (pred()) return true;
    while (Step()) {
      if (pred()) return true;
    }
    return false;
  }

  /// Executes at most one pending event. Returns false if none pending.
  bool Step();

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t events_executed() const { return events_executed_; }
  /// Times ScheduleAt was called with a timestamp already in the past
  /// (the sim.schedule_clamped stat; nonzero means a latent time bug).
  std::uint64_t schedule_clamped() const { return schedule_clamped_; }

  /// Earliest pending timestamp without committing the wheel position
  /// (pure read; see EventQueue::MinPendingTime). Requires pending work.
  SimTime MinPendingTime() const { return queue_.MinPendingTime(); }

  /// Starts folding every executed event's (timestamp, pending-depth)
  /// into an order-sensitive hash — the committed-schedule fingerprint
  /// the sharded engine compares across worker counts. One predicted
  /// branch per event when off; Simulators never enable it by default.
  void EnableFingerprint() { fingerprint_on_ = true; }
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t schedule_clamped_ = 0;
  bool fingerprint_on_ = false;
  std::uint64_t fingerprint_ = 0x6a09e667f3bcc908ull;
};

}  // namespace postblock::sim

#endif  // POSTBLOCK_SIM_SIMULATOR_H_
