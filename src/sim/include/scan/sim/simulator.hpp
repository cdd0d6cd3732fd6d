#pragma once

// Deterministic discrete-event simulation engine.
//
// The paper evaluates SCAN by simulating a hybrid cloud for 10,000 time
// units per run. This engine provides the substrate: a simulation clock,
// an event calendar with deterministic FIFO tie-breaking for simultaneous
// events, cancellable event handles, and periodic "process" helpers.
//
// Determinism contract: given the same initial schedule and the same
// callbacks (drawing randomness only from seeded scan::RandomStream
// objects), two runs produce identical event orders. Simultaneous events
// fire in scheduling order (monotone sequence numbers break time ties).
//
// Hot-path design (see DESIGN.md §11): the calendar is a calendar-queue/
// ladder-queue hybrid (scan/sim/calendar.hpp) whose event nodes live in a
// pool arena, and ScheduleAt is a template so callbacks land directly in
// a 64-byte inline buffer without an intermediate std::function (whose
// 16-byte small-object buffer would heap-allocate every scheduler
// callback). Behaviour is bit-identical to the retained priority-queue
// reference — the differential battery in tests/sim pins this.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "scan/common/units.hpp"
#include "scan/sim/calendar.hpp"

namespace scan::sim {

class Simulator;

/// Opaque identifier for a scheduled event; usable for cancellation.
class EventId {
 public:
  constexpr EventId() = default;

  [[nodiscard]] constexpr bool valid() const { return seq_ != 0; }
  friend constexpr bool operator==(EventId, EventId) = default;

 private:
  friend class Simulator;
  constexpr EventId(std::uint64_t seq, double when) : seq_(seq), when_(when) {}
  std::uint64_t seq_ = 0;
  /// Scheduled time: with seq, the event's calendar key, which tells
  /// Cancel whether the event has already been popped.
  double when_ = 0.0;
};

/// Engine statistics, exposed for tests and microbenchmarks.
struct SimulatorStats {
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_cancelled = 0;
};

/// The discrete-event simulator.
///
/// Usage:
///   Simulator sim;
///   sim.ScheduleAt(SimTime{1.0}, [&](Simulator& s) { ... });
///   sim.RunUntil(SimTime{10'000.0});
class Simulator {
 public:
  using Callback = std::function<void(Simulator&)>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Starts at 0.
  [[nodiscard]] SimTime Now() const { return now_; }

  /// Schedules `cb` at absolute time `when` (>= Now()). Returns a handle
  /// that can cancel the event before it fires. Accepts any callable of
  /// (Simulator&); callables up to 64 bytes are stored inline.
  template <class F>
    requires std::is_invocable_v<std::decay_t<F>&, Simulator&>
  EventId ScheduleAt(SimTime when, F&& cb) {
    if (!(when >= now_)) {
      throw std::invalid_argument(
          "Simulator::ScheduleAt: cannot schedule in the past");
    }
    // Null-state callables (e.g. a default-constructed std::function)
    // keep the legacy contract and are rejected up front.
    if constexpr (requires { static_cast<bool>(cb); }) {
      if (!static_cast<bool>(cb)) {
        throw std::invalid_argument("Simulator::ScheduleAt: empty callback");
      }
    }
    const std::uint64_t seq = next_seq_++;
    calendar_.Push(when.value(), seq, std::forward<F>(cb));
    ++stats_.events_scheduled;
    return EventId{seq, when.value()};
  }

  /// Schedules `cb` after a non-negative delay from Now().
  template <class F>
    requires std::is_invocable_v<std::decay_t<F>&, Simulator&>
  EventId ScheduleAfter(SimTime delay, F&& cb) {
    return ScheduleAt(now_ + delay, std::forward<F>(cb));
  }

  /// Cancels a pending event. Returns false if it already fired, was
  /// already cancelled, or the handle is invalid.
  bool Cancel(EventId id);

  /// Schedules `cb` every `period` starting at Now() + period, until the
  /// returned handle is cancelled or the simulation ends. The handle stays
  /// valid across firings (cancelling it stops the recurrence).
  EventId SchedulePeriodic(SimTime period, Callback cb);

  /// Runs events in time order until the calendar empties or the next
  /// event lies beyond `horizon`. The clock is left at the last executed
  /// event time (or at `horizon` if the calendar still has later events
  /// and `horizon` is ahead of the clock; it never moves back).
  void RunUntil(SimTime horizon);

  /// Runs until the calendar is empty.
  void RunToCompletion() {
    RunUntil(SimTime{std::numeric_limits<double>::infinity()});
  }

  /// Executes exactly one event if any is pending; returns whether one ran.
  bool Step();

  /// True if no events are pending.
  [[nodiscard]] bool Empty() const;

  /// Time of the next pending event; infinity if none.
  [[nodiscard]] SimTime NextEventTime() const;

  [[nodiscard]] const SimulatorStats& stats() const { return stats_; }

  /// Calendar internals (reseeds, bucket sorts, peak pending), exposed
  /// for benchmarks and boundary tests.
  [[nodiscard]] const CalendarStats& calendar_stats() const {
    return calendar_.stats();
  }

  /// Trace hook invoked before each event executes (event time, sequence).
  /// Used by tests to assert ordering; pass nullptr to clear.
  void SetTraceHook(std::function<void(SimTime, std::uint64_t)> hook) {
    trace_hook_ = std::move(hook);
  }

 private:
  struct PeriodicState {
    SimTime period;
    Callback cb;
    std::uint64_t handle_seq = 0;  // the EventId returned to the caller
    bool cancelled = false;
  };

  /// Builds the firing wrapper for a periodic event; each firing constructs
  /// the next wrapper afresh (no closure-captures-itself cycle).
  static Callback MakePeriodicFire(std::shared_ptr<PeriodicState> state);

  /// Calendar key (when, seq); compares in pop order.
  using Key = std::pair<double, std::uint64_t>;

  /// Pops and fires the calendar minimum, which must not be cancelled.
  void PopAndRun();
  /// Pops the calendar minimum, a cancelled event, and forgets it.
  void DropCancelledHead();
  /// True if the event has fired or was dropped after a cancel. Events
  /// fire at the clock, which never moves back, and every event is
  /// scheduled at or after the clock with a fresh seq, so every key up to
  /// the last fired one has left the calendar. A key above it is pending
  /// unless it was dropped since.
  [[nodiscard]] bool Gone(EventId id) const {
    if (Key{id.when_, id.seq_} <= fired_) return true;
    for (const Key& key : dropped_) {
      if (key.second == id.seq_) return true;
    }
    return false;
  }

  SimTime now_{0.0};
  std::uint64_t next_seq_ = 1;
  /// Key of the last event that fired.
  Key fired_{-std::numeric_limits<double>::infinity(), 0};
  /// Keys of cancelled events dropped from the calendar above the last
  /// fired key. A drop does not move the clock (RunUntil drops cancelled
  /// events past its horizon), so later events may still be scheduled
  /// before them; each is kept until a firing passes its key.
  std::vector<Key> dropped_;
  // Mutable: const peeks (NextEventTime) may advance the ladder window,
  // which reorders storage but never observable state.
  mutable LadderCalendar calendar_;
  // Cancelled events stay in the calendar and are skipped on pop (lazy
  // deletion keeps Cancel O(1) without calendar surgery).
  std::unordered_set<std::uint64_t> cancelled_;
  std::vector<std::shared_ptr<PeriodicState>> periodics_;
  SimulatorStats stats_;
  std::function<void(SimTime, std::uint64_t)> trace_hook_;
};

}  // namespace scan::sim
