#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "scan/sim/simulator.hpp"

namespace scan::sim {
namespace {

TEST(SimulatorEdgeTest, DeepEventChainDoesNotRecurse) {
  // Each event schedules the next; the engine iterates (no stack growth),
  // so a long chain must complete.
  Simulator sim;
  constexpr int kDepth = 200'000;
  int fired = 0;
  std::function<void(Simulator&)> chain = [&](Simulator& s) {
    if (++fired < kDepth) {
      s.ScheduleAfter(SimTime{0.001}, chain);
    }
  };
  sim.ScheduleAt(SimTime{0.0}, chain);
  sim.RunToCompletion();
  EXPECT_EQ(fired, kDepth);
}

TEST(SimulatorEdgeTest, PeriodicCancelsItselfFromInsideCallback) {
  Simulator sim;
  int fired = 0;
  EventId handle;
  handle = sim.SchedulePeriodic(SimTime{1.0}, [&](Simulator& s) {
    if (++fired == 3) s.Cancel(handle);
  });
  sim.RunUntil(SimTime{100.0});
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(sim.Empty());
}

TEST(SimulatorEdgeTest, CancelDuringEventOfSameTimestamp) {
  // Event A cancels event B scheduled at the same instant; B must not run.
  Simulator sim;
  bool b_ran = false;
  EventId b;
  sim.ScheduleAt(SimTime{1.0}, [&](Simulator& s) { s.Cancel(b); });
  b = sim.ScheduleAt(SimTime{1.0}, [&](Simulator&) { b_ran = true; });
  sim.RunToCompletion();
  EXPECT_FALSE(b_ran);
}

TEST(SimulatorEdgeTest, ZeroDelayEventRunsAtCurrentTime) {
  Simulator sim;
  double fired_at = -1.0;
  sim.ScheduleAt(SimTime{5.0}, [&](Simulator& s) {
    s.ScheduleAfter(SimTime{0.0}, [&](Simulator& inner) {
      fired_at = inner.Now().value();
    });
  });
  sim.RunToCompletion();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(SimulatorEdgeTest, ManySimultaneousPeriodics) {
  Simulator sim;
  int total = 0;
  for (int i = 0; i < 10; ++i) {
    sim.SchedulePeriodic(SimTime{1.0}, [&](Simulator&) { ++total; });
  }
  sim.RunUntil(SimTime{10.5});
  EXPECT_EQ(total, 100);  // 10 periodics x 10 firings
}

TEST(SimulatorEdgeTest, RunUntilAtExactEventTimeIncludesIt) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(SimTime{5.0}, [&](Simulator&) { fired = true; });
  sim.RunUntil(SimTime{5.0});
  EXPECT_TRUE(fired);
}

TEST(SimulatorEdgeTest, StatsSurviveCancellationMix) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(
        sim.ScheduleAt(SimTime{static_cast<double>(i + 1)}, [](Simulator&) {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    EXPECT_TRUE(sim.Cancel(ids[i]));
  }
  sim.RunToCompletion();
  EXPECT_EQ(sim.stats().events_scheduled, 100u);
  EXPECT_EQ(sim.stats().events_cancelled, 50u);
  EXPECT_EQ(sim.stats().events_executed, 50u);
}

TEST(SimulatorEdgeTest, CancelAfterFireIsRefusedAndLeavesNoStaleState) {
  // Regression: cancelling a fired event used to return true, count a
  // cancellation and leave its seq in the lazy-deletion set, so Empty()
  // reported true while the t=2 event was still pending.
  Simulator sim;
  int fired = 0;
  const EventId first =
      sim.ScheduleAt(SimTime{1.0}, [&](Simulator&) { ++fired; });
  sim.ScheduleAt(SimTime{2.0}, [&](Simulator&) { ++fired; });
  sim.RunUntil(SimTime{1.5});
  ASSERT_EQ(fired, 1);
  EXPECT_FALSE(sim.Cancel(first));
  EXPECT_EQ(sim.stats().events_cancelled, 0u);
  EXPECT_FALSE(sim.Empty());
  EXPECT_EQ(sim.NextEventTime(), SimTime{2.0});
  sim.RunToCompletion();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(sim.Empty());
}

TEST(SimulatorEdgeTest, CancelAfterLazyDropAndOfSameTimeSiblingsIsExact) {
  // A cancelled event that was already dropped from the calendar, and a
  // fired event at the same time as a pending one, both refuse a cancel;
  // the pending same-time sibling still cancels.
  Simulator sim;
  int fired = 0;
  const EventId dropped = sim.ScheduleAt(SimTime{1.0}, [&](Simulator&) {});
  const EventId ran =
      sim.ScheduleAt(SimTime{2.0}, [&](Simulator&) { ++fired; });
  const EventId sibling =
      sim.ScheduleAt(SimTime{2.0}, [&](Simulator&) { ++fired; });
  ASSERT_TRUE(sim.Cancel(dropped));
  ASSERT_TRUE(sim.Step());  // drops t=1, runs the first t=2 event
  ASSERT_EQ(fired, 1);
  EXPECT_FALSE(sim.Cancel(dropped));
  EXPECT_FALSE(sim.Cancel(ran));
  EXPECT_TRUE(sim.Cancel(sibling));
  EXPECT_EQ(sim.stats().events_cancelled, 2u);
  EXPECT_TRUE(sim.Empty());
  sim.RunToCompletion();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorEdgeTest, EventScheduledBeforeADropPastTheHorizonCancels) {
  // Regression: RunUntil drops a cancelled head event even past its
  // horizon without moving the clock there, so an event scheduled later
  // can precede the dropped one. It is still pending and must cancel.
  Simulator sim;
  int fired = 0;
  const EventId late =
      sim.ScheduleAt(SimTime{10.0}, [&](Simulator&) { ++fired; });
  ASSERT_TRUE(sim.Cancel(late));
  sim.RunUntil(SimTime{5.0});  // drops the t=10 event
  EXPECT_EQ(sim.Now(), SimTime{0.0});
  const EventId early =
      sim.ScheduleAt(SimTime{7.0}, [&](Simulator&) { ++fired; });
  EXPECT_TRUE(sim.Cancel(early));
  EXPECT_FALSE(sim.Cancel(late));
  EXPECT_EQ(sim.stats().events_cancelled, 2u);
  EXPECT_TRUE(sim.Empty());
  sim.RunToCompletion();
  EXPECT_EQ(fired, 0);

  // The dropped key stays refused after an earlier event fires.
  const EventId third =
      sim.ScheduleAt(SimTime{8.0}, [&](Simulator&) { ++fired; });
  sim.RunToCompletion();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.Cancel(late));
  EXPECT_FALSE(sim.Cancel(third));
  EXPECT_EQ(sim.stats().events_cancelled, 2u);
}

TEST(SimulatorEdgeTest, RunUntilAnEarlierHorizonKeepsTheClock) {
  // A rewound clock would accept events "in the past" and make an event
  // behind the last popped one look already fired to Cancel.
  Simulator sim;
  sim.ScheduleAt(SimTime{5.0}, [](Simulator&) {});
  sim.ScheduleAt(SimTime{7.0}, [](Simulator&) {});
  sim.RunUntil(SimTime{6.0});
  sim.RunUntil(SimTime{3.0});
  EXPECT_EQ(sim.Now(), SimTime{6.0});
  EXPECT_THROW(sim.ScheduleAt(SimTime{4.0}, [](Simulator&) {}),
               std::invalid_argument);
}

TEST(SimulatorEdgeTest, PeriodicHandleCancelsOnce) {
  Simulator sim;
  const EventId handle = sim.SchedulePeriodic(SimTime{1.0}, [](Simulator&) {});
  EXPECT_TRUE(sim.Cancel(handle));
  EXPECT_FALSE(sim.Cancel(handle));
  EXPECT_EQ(sim.stats().events_cancelled, 1u);
}

}  // namespace
}  // namespace scan::sim
