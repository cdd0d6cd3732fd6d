#include "scan/sim/simulator.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "scan/common/log.hpp"

namespace scan::sim {

bool Simulator::Cancel(EventId id) {
  if (!id.valid() || id.seq_ >= next_seq_) return false;
  // Periodic handles cancel their recurrence state instead.
  for (auto& p : periodics_) {
    if (p->handle_seq == id.seq_) {
      if (p->cancelled) return false;
      p->cancelled = true;
      ++stats_.events_cancelled;
      return true;
    }
  }
  // A fired or dropped event must not enter cancelled_: the stale seq would
  // never be popped again and would make Empty() discount a live event.
  if (Gone(id) || !cancelled_.insert(id.seq_).second) return false;
  ++stats_.events_cancelled;
  return true;
}

void Simulator::DropCancelledHead() {
  const LadderCalendar::Entry dead = calendar_.PopMin();
  cancelled_.erase(dead.seq);
  dropped_.emplace_back(dead.when, dead.seq);
  calendar_.ReleaseNode(dead.node);
}

Simulator::Callback Simulator::MakePeriodicFire(
    std::shared_ptr<PeriodicState> state) {
  return [state = std::move(state)](Simulator& sim) {
    if (state->cancelled) return;
    state->cb(sim);
    if (!state->cancelled) {
      sim.ScheduleAfter(state->period, MakePeriodicFire(state));
    }
  };
}

EventId Simulator::SchedulePeriodic(SimTime period, Callback cb) {
  if (!(period > SimTime{0.0})) {
    throw std::invalid_argument(
        "Simulator::SchedulePeriodic: period must be positive");
  }
  auto state = std::make_shared<PeriodicState>();
  state->period = period;
  state->cb = std::move(cb);
  state->handle_seq = next_seq_;  // the handle aliases the first firing
  periodics_.push_back(state);
  return ScheduleAfter(period, MakePeriodicFire(std::move(state)));
}

void Simulator::PopAndRun() {
  const LadderCalendar::Entry entry = calendar_.PopMin();
  assert(entry.when >= now_.value());
  now_ = SimTime{entry.when};
  fired_ = Key{entry.when, entry.seq};
  if (!dropped_.empty()) {
    std::erase_if(dropped_, [&](const Key& key) { return key < fired_; });
  }
  SetLogSimTime(entry.when);
  if (trace_hook_) trace_hook_(SimTime{entry.when}, entry.seq);
  ++stats_.events_executed;
  // The callback may schedule further events (growing the arena) but can
  // never reach this node again: its seq is already popped. The guard
  // returns the node to the arena even if the callback throws.
  struct NodeGuard {
    LadderCalendar& calendar;
    LadderCalendar::EventNode* node;
    ~NodeGuard() { calendar.ReleaseNode(node); }
  } guard{calendar_, entry.node};
  entry.node->cb(*this);
}

void Simulator::RunUntil(SimTime horizon) {
  while (!calendar_.empty()) {
    const LadderCalendar::Entry& next = calendar_.PeekMin();
    if (!cancelled_.empty() && cancelled_.contains(next.seq)) {
      DropCancelledHead();
      continue;
    }
    if (SimTime{next.when} > horizon) {
      if (horizon > now_) now_ = horizon;  // never rewind the clock
      return;
    }
    PopAndRun();
  }
  // Calendar drained; clock rests at the last executed event (or horizon if
  // that is finite and earlier semantics are not needed — we keep last event
  // time so Now() reflects real progress).
}

bool Simulator::Step() {
  while (!calendar_.empty()) {
    const LadderCalendar::Entry& next = calendar_.PeekMin();
    if (!cancelled_.empty() && cancelled_.contains(next.seq)) {
      DropCancelledHead();
      continue;
    }
    PopAndRun();
    return true;
  }
  return false;
}

bool Simulator::Empty() const {
  // Account for lazily-cancelled entries still in the calendar.
  return calendar_.size() <= cancelled_.size();
}

SimTime Simulator::NextEventTime() const {
  // Note: may report the time of a cancelled (lazily-deleted) event; callers
  // use this only as a lower bound, which remains correct.
  if (calendar_.empty()) {
    return SimTime{std::numeric_limits<double>::infinity()};
  }
  return SimTime{calendar_.PeekMin().when};
}

}  // namespace scan::sim
