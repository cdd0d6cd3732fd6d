#pragma once

// The pre-ladder event calendar, verbatim: a binary heap of fat events
// ordered by (when, seq). The production LadderCalendar
// (scan/sim/calendar.hpp) must pop in exactly this order; the
// differential battery in calendar_differential_test.cpp pins that, and
// bench_des_hotpath uses it as the "before" leg.

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "scan/sim/calendar.hpp"

namespace scan::sim {

/// A binary heap of fat events ordered by (when, seq). Templated on the
/// callback type so the differential test can instantiate it for its
/// reference engine; `ReferenceCalendar` below is the historical shape.
template <class Callback>
class BasicReferenceCalendar {
 public:
  struct Event {
    double when = 0.0;
    std::uint64_t seq = 0;
    Callback cb;
  };

  void Push(double when, std::uint64_t seq, Callback cb) {
    heap_.push(Event{when, seq, std::move(cb)});
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] const Event& PeekMin() const { return heap_.top(); }

  [[nodiscard]] Event PopMin() {
    Event event = heap_.top();  // copy, as the legacy engine did
    heap_.pop();
    return event;
  }

 private:
  struct Order {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Order> heap_;
};

using ReferenceCalendar = BasicReferenceCalendar<std::function<void(Simulator&)>>;

}  // namespace scan::sim
