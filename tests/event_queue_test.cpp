#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "util/require.hpp"

namespace csmabw::sim {
namespace {

/// Timer target: counts its firings and logs `tag` into `order`.
struct Recorder {
  std::vector<int>* order = nullptr;
  int tag = 0;
  int hits = 0;
  void record() {
    ++hits;
    if (order != nullptr) {
      order->push_back(tag);
    }
  }
};

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimeNs::us(30), [&] { order.push_back(3); });
  q.schedule(TimeNs::us(10), [&] { order.push_back(1); });
  q.schedule(TimeNs::us(20), [&] { order.push_back(2); });
  while (!q.empty()) {
    q.pop_and_run();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(TimeNs::us(7), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.pop_and_run();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimeNs::us(1), [&] {
    order.push_back(1);
    q.schedule(TimeNs::us(2), [&] { order.push_back(2); });
  });
  while (!q.empty()) {
    q.pop_and_run();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, PopOnEmptyIsAnError) {
  EventQueue q;
  EXPECT_THROW((void)q.pop_and_run(), util::PreconditionError);
  EXPECT_THROW((void)q.next_time(), util::PreconditionError);
}

// A nullable callable smaller than std::function (whose size varies by
// standard library — libc++/MSVC would overflow the inline slot).
struct NullableFn {
  void (*fn)() = nullptr;
  explicit operator bool() const { return fn != nullptr; }
  void operator()() const { fn(); }
};

TEST(EventQueue, NullCallbackRejected) {
  EventQueue q;
  EXPECT_THROW((void)q.schedule(TimeNs::us(1), NullableFn{}),
               util::PreconditionError);
}

TEST(EventQueue, MemberDispatchRunsTheMethod) {
  struct Counter {
    int hits = 0;
    void bump() { ++hits; }
  };
  EventQueue q;
  Counter c;
  q.schedule_member<&Counter::bump>(TimeNs::us(1), c);
  q.schedule_member<&Counter::bump>(TimeNs::us(2), c);
  while (!q.empty()) {
    q.pop_and_run();
  }
  EXPECT_EQ(c.hits, 2);
}

TEST(EventQueue, NonTrivialCallbackIsDestroyed) {
  // A shared_ptr capture is non-trivially destructible; its destructor
  // must run on the fire path (and at queue teardown, below).
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  EventQueue q;
  auto fn = [token] {};
  token.reset();
  q.schedule(TimeNs::us(1), std::move(fn));
  EXPECT_FALSE(watch.expired());
  q.pop_and_run();
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, TeardownDestroysPendingCallbacks) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    EventQueue q;
    auto fn = [token] {};
    token.reset();
    q.schedule(TimeNs::us(1), std::move(fn));
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, SteadyStateDoesNotAllocate) {
  EventQueue q;
  auto churn = [&q] {
    for (int i = 0; i < 10000; ++i) {
      q.schedule(TimeNs::us(i % 500), [] {});
      if (q.size() > 700) {
        while (!q.empty()) {
          q.pop_and_run();
        }
      }
    }
    while (!q.empty()) {
      q.pop_and_run();
    }
  };
  // Warm-up: drive slab and heap to the workload's high-water mark.
  churn();
  // Steady state: the queue itself performs zero heap allocations across
  // 10k scheduled events (slab chunks and heap capacity are recycled).
  const std::uint64_t before = q.allocations();
  churn();
  EXPECT_EQ(q.allocations(), before);
}

TEST(EventQueue, RunUntilBatchesInOrder) {
  EventQueue q;
  std::vector<std::int64_t> seen;
  TimeNs now = TimeNs::zero();
  for (int i = 10; i >= 1; --i) {
    q.schedule(TimeNs::us(i), [&seen, &now] { seen.push_back(now.count()); });
  }
  const std::uint64_t ran = q.run_until(TimeNs::us(5), now);
  EXPECT_EQ(ran, 5u);
  EXPECT_EQ(q.size(), 5u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  const std::uint64_t rest = q.run_all(now);
  EXPECT_EQ(rest, 5u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(now, TimeNs::us(10));
}


// --- re-armable timers ---

TEST(EventQueue, TimerTiesBreakBySequenceWithTheHeap) {
  // One counter numbers schedules and arms alike: a timer armed after a
  // one-shot event at the same time fires after it, and before an event
  // scheduled after the arm.
  EventQueue q;
  std::vector<int> order;
  Recorder r{&order, 2};
  const TimerId t = q.add_timer<&Recorder::record>(r);
  q.schedule(TimeNs::us(5), [&] { order.push_back(1); });
  q.arm(t, TimeNs::us(5));
  q.schedule(TimeNs::us(5), [&] { order.push_back(3); });
  TimeNs now;
  EXPECT_EQ(q.run_all(now), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RearmReplacesThePendingFiring) {
  EventQueue q;
  std::vector<int> order;
  Recorder r{&order, 0};
  const TimerId t = q.add_timer<&Recorder::record>(r);
  q.schedule(TimeNs::us(10), [&] { order.push_back(1); });
  // Earlier: the firing moves ahead of the heap event.
  q.arm(t, TimeNs::us(20));
  q.arm(t, TimeNs::us(5));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), TimeNs::us(5));
  EXPECT_EQ(q.pop_and_run(), TimeNs::us(5));
  // Later: the firing moves behind it.
  q.arm(t, TimeNs::us(7));
  q.arm(t, TimeNs::us(30));
  EXPECT_EQ(q.pop_and_run(), TimeNs::us(10));
  EXPECT_EQ(q.pop_and_run(), TimeNs::us(30));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0}));
}

TEST(EventQueue, CancelSkipsEvent) {
  // Disarming a timer is the queue's one cancellation.
  EventQueue q;
  std::vector<int> order;
  Recorder r{&order, 1};
  const TimerId t = q.add_timer<&Recorder::record>(r);
  q.arm(t, TimeNs::us(1));
  q.schedule(TimeNs::us(2), [&] { order.push_back(2); });
  q.disarm(t);
  while (!q.empty()) {
    q.pop_and_run();
  }
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterFire) {
  EventQueue q;
  Recorder r;
  const TimerId t = q.add_timer<&Recorder::record>(r);
  q.disarm(t);  // never armed: no effect
  q.arm(t, TimeNs::us(1));
  q.pop_and_run();
  q.disarm(t);  // no effect after firing
  q.disarm(t);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(r.hits, 1);
}

TEST(EventQueue, SelfCancelDuringDispatchIsANoOp) {
  struct SelfDisarm {
    EventQueue* q = nullptr;
    TimerId id = 0;
    std::size_t pending_inside = 0;
    void fire() {
      pending_inside = q->size();  // its own firing is gone already
      q->disarm(id);               // harmless
    }
  };
  EventQueue q;
  SelfDisarm sd{&q};
  sd.id = q.add_timer<&SelfDisarm::fire>(sd);
  q.arm(sd.id, TimeNs::us(1));
  int other = 0;
  q.schedule(TimeNs::us(2), [&] { ++other; });
  while (!q.empty()) {
    q.pop_and_run();
  }
  EXPECT_EQ(sd.pending_inside, 1u);  // only the us(2) event
  EXPECT_EQ(other, 1);
}

TEST(EventQueue, NextTimeSeesEarliestLiveEvent) {
  EventQueue q;
  Recorder r;
  const TimerId t = q.add_timer<&Recorder::record>(r);
  q.schedule(TimeNs::us(5), [] {});
  q.arm(t, TimeNs::us(1));
  EXPECT_EQ(q.next_time(), TimeNs::us(1));
  q.disarm(t);
  EXPECT_EQ(q.next_time(), TimeNs::us(5));
  q.arm(t, TimeNs::us(9));
  EXPECT_EQ(q.next_time(), TimeNs::us(5));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  Recorder r;
  const TimerId t = q.add_timer<&Recorder::record>(r);
  q.schedule(TimeNs::us(1), [] {});
  q.schedule(TimeNs::us(2), [] {});
  q.arm(t, TimeNs::us(3));
  EXPECT_EQ(q.size(), 3u);
  q.disarm(t);
  EXPECT_EQ(q.size(), 2u);
  q.pop_and_run();
  EXPECT_EQ(q.size(), 1u);
  q.pop_and_run();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, LoneArmedTimerIsPending) {
  EventQueue q;
  Recorder r;
  const TimerId t = q.add_timer<&Recorder::record>(r);
  EXPECT_TRUE(q.empty());  // a registered timer is not an event
  q.arm(t, TimeNs::us(3));
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), TimeNs::us(3));
  TimeNs now;
  EXPECT_EQ(q.run_all(now), 1u);
  EXPECT_EQ(now, TimeNs::us(3));
  EXPECT_EQ(r.hits, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EarliestOfSeveralTimersFiresFirst) {
  EventQueue q;
  std::vector<int> order;
  Recorder a{&order, 0};
  Recorder b{&order, 1};
  Recorder c{&order, 2};
  const TimerId ta = q.add_timer<&Recorder::record>(a);
  const TimerId tb = q.add_timer<&Recorder::record>(b);
  const TimerId tc = q.add_timer<&Recorder::record>(c);
  q.arm(tc, TimeNs::us(4));
  q.arm(ta, TimeNs::us(4));  // same time, armed later: after c
  q.arm(tb, TimeNs::us(2));
  q.arm(tb, TimeNs::us(6));  // the earliest moves behind the others
  TimeNs now;
  EXPECT_EQ(q.run_all(now), 3u);
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
}

TEST(EventQueue, UnknownTimerRejected) {
  EventQueue q;
  EXPECT_THROW(q.arm(0, TimeNs::us(1)), util::PreconditionError);
  EXPECT_THROW(q.disarm(3), util::PreconditionError);
}

TEST(EventQueue, CancelChurnKeepsHeapAndSlabBounded) {
  // The medium's pattern — replace the pending firing on nearly every
  // event — is a timer re-arm: 100k of them leave one pending firing
  // and never touch the slab.
  EventQueue q;
  for (int i = 0; i < 10; ++i) {
    q.schedule(TimeNs::sec(100 + i), [] {});
  }
  Recorder r;
  const TimerId t = q.add_timer<&Recorder::record>(r);
  const std::size_t slots = q.slot_capacity();
  for (int i = 0; i < 100000; ++i) {
    q.arm(t, TimeNs::us(i % 997));
  }
  EXPECT_EQ(q.size(), 11u);
  EXPECT_EQ(q.slot_capacity(), slots);
  TimeNs now;
  EXPECT_EQ(q.run_all(now), 11u);
  EXPECT_EQ(r.hits, 1);
}

}  // namespace
}  // namespace csmabw::sim
