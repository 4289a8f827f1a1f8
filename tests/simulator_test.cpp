#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/require.hpp"

namespace csmabw::sim {
namespace {

TEST(Simulator, NowInsideCallbackIsEventTime) {
  // Regression test: callbacks must observe now() == their scheduled
  // time, not the previous event's time (this bug broke every MAC
  // timestamp downstream).
  Simulator sim;
  std::vector<TimeNs> observed;
  sim.schedule_at(TimeNs::us(10), [&] { observed.push_back(sim.now()); });
  sim.schedule_at(TimeNs::us(25), [&] { observed.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], TimeNs::us(10));
  EXPECT_EQ(observed[1], TimeNs::us(25));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(TimeNs::us(10), [&] { ++fired; });
  sim.schedule_at(TimeNs::us(30), [&] { ++fired; });
  sim.run_until(TimeNs::us(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimeNs::us(20));
  sim.run_until(TimeNs::us(40));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventAtDeadlineRuns) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(TimeNs::us(20), [&] { ++fired; });
  sim.run_until(TimeNs::us(20));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  TimeNs when;
  sim.schedule_at(TimeNs::us(5), [&] {
    sim.schedule_in(TimeNs::us(7), [&] { when = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(when, TimeNs::us(12));
}

TEST(Simulator, PastSchedulingRejected) {
  Simulator sim;
  sim.schedule_at(TimeNs::us(10), [] {});
  sim.run_until(TimeNs::us(20));
  EXPECT_THROW((void)sim.schedule_at(TimeNs::us(15), [] {}),
               util::PreconditionError);
  EXPECT_THROW((void)sim.schedule_in(TimeNs::ns(-1), [] {}),
               util::PreconditionError);
  struct Nop {
    void fire() {}
  } nop;
  const TimerId t = sim.add_timer<&Nop::fire>(nop);
  EXPECT_THROW(sim.arm(t, TimeNs::us(15)), util::PreconditionError);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, PastDeadlineRejected) {
  Simulator sim;
  sim.run_until(TimeNs::us(10));
  EXPECT_THROW(sim.run_until(TimeNs::us(5)), util::PreconditionError);
}

TEST(Simulator, RunWhilePendingStopsOnPredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(TimeNs::us(i), [&] { ++count; });
  }
  const bool satisfied =
      sim.run_while_pending([&] { return count == 3; });
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), TimeNs::us(3));
}

TEST(Simulator, RunWhilePendingDrainReturnsPredicate) {
  Simulator sim;
  sim.schedule_at(TimeNs::us(1), [] {});
  EXPECT_FALSE(sim.run_while_pending([] { return false; }));
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 1; i <= 4; ++i) {
    sim.schedule_at(TimeNs::us(i), [] {});
  }
  sim.run();
  EXPECT_EQ(sim.events_processed(), 4u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

/// Timer target that logs now() at each firing and re-arms itself
/// `period` later until it has fired `limit` times.
struct Periodic {
  explicit Periodic(Simulator& s, TimeNs every = TimeNs::zero(),
                    std::size_t times = 1)
      : sim(&s), period(every), limit(times) {
    id = s.add_timer<&Periodic::tick>(*this);
  }
  Simulator* sim;
  TimerId id = 0;
  TimeNs period;
  std::size_t limit;
  std::vector<TimeNs> seen;
  void tick() {
    seen.push_back(sim->now());
    if (seen.size() < limit) {
      sim->arm(id, sim->now() + period);
    }
  }
};

TEST(Simulator, CancelledEventsDoNotRun) {
  // Disarming a timer is the simulator's one cancellation.
  Simulator sim;
  Periodic p(sim);
  sim.arm(p.id, TimeNs::us(2));
  sim.schedule_at(TimeNs::us(1), [&] { sim.disarm(p.id); });
  sim.run();
  EXPECT_TRUE(p.seen.empty());
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Simulator, TimerRearmsItselfFromItsCallback) {
  Simulator sim;
  Periodic p(sim, TimeNs::us(10), 3);
  sim.arm(p.id, TimeNs::us(5));
  sim.run();
  EXPECT_EQ(p.seen, (std::vector<TimeNs>{TimeNs::us(5), TimeNs::us(15),
                                         TimeNs::us(25)}));
  EXPECT_EQ(sim.events_processed(), 3u);
  EXPECT_EQ(sim.now(), TimeNs::us(25));
}

TEST(Simulator, RunUntilFiresTimerAtDeadlineAndKeepsLaterOne) {
  Simulator sim;
  Periodic a(sim);
  Periodic b(sim);
  sim.arm(a.id, TimeNs::us(20));
  sim.arm(b.id, TimeNs::us(30));
  sim.run_until(TimeNs::us(20));
  EXPECT_EQ(a.seen, (std::vector<TimeNs>{TimeNs::us(20)}));
  EXPECT_TRUE(b.seen.empty());
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(TimeNs::us(40));
  EXPECT_EQ(b.seen, (std::vector<TimeNs>{TimeNs::us(30)}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, TimerFiringCountsAsOneEvent) {
  Simulator sim;
  Periodic p(sim);
  for (int i = 0; i < 5; ++i) {
    sim.arm(p.id, TimeNs::us(10 - i));
  }
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(p.seen, (std::vector<TimeNs>{TimeNs::us(6)}));
  EXPECT_EQ(sim.events_processed(), 1u);
}

}  // namespace
}  // namespace csmabw::sim
