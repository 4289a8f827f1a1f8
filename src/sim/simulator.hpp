#pragma once

#include <type_traits>
#include <utility>

#include "sim/event_queue.hpp"
#include "util/require.hpp"
#include "util/time.hpp"

namespace csmabw::trace {
class TraceSink;
}  // namespace csmabw::trace

namespace csmabw::sim {

/// Discrete-event simulator: a clock plus an event queue.
///
/// Components hold a `Simulator&` and schedule callbacks; the owner calls
/// `run_until` / `run`.  The clock never moves backwards; scheduling in
/// the past is a contract violation (it would silently reorder
/// causality).
///
/// Scheduling is allocation-free: callbacks are moved into the pooled
/// event queue's inline slots, and a component that keeps re-arming one
/// pending event (the medium's contention clock) holds a timer instead
/// (see EventQueue), so the hot path of a large ensemble performs no
/// per-event heap work.
class Simulator {
 public:
  [[nodiscard]] TimeNs now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (>= now()).
  template <class F>
  void schedule_at(TimeNs at, F fn) {
    CSMABW_REQUIRE(at >= now_, "cannot schedule an event in the past");
    queue_.schedule(at, std::move(fn));
  }
  /// Schedules `fn` after `delay` (>= 0).
  template <class F>
  void schedule_in(TimeNs delay, F fn) {
    CSMABW_REQUIRE(delay >= TimeNs::zero(), "delay must be non-negative");
    queue_.schedule(now_ + delay, std::move(fn));
  }
  /// Schedules `(obj.*Method)()` at `at` — direct member-function
  /// dispatch on the pooled event, e.g.
  /// `sim.schedule_member_at<&CbrSource::on_timer>(t, *this)`.
  template <auto Method, class T>
  void schedule_member_at(TimeNs at, T& obj) {
    CSMABW_REQUIRE(at >= now_, "cannot schedule an event in the past");
    queue_.schedule_member<Method>(at, obj);
  }

  /// Registers a re-armable timer calling `(obj.*Method)()`, e.g.
  /// `sim.add_timer<&Medium::fire>(*this)`; see EventQueue::add_timer.
  /// Call at set-up: this may allocate.
  template <auto Method, class T>
  TimerId add_timer(T& obj) {
    return queue_.add_timer<Method>(obj);
  }
  /// Arms timer `id` at `at` (>= now()), replacing any pending firing.
  void arm(TimerId id, TimeNs at) {
    CSMABW_REQUIRE(at >= now_, "cannot arm a timer in the past");
    queue_.arm(id, at);
  }
  /// Drops timer `id`'s pending firing, if any.
  void disarm(TimerId id) { queue_.disarm(id); }

  /// Runs events with time <= `deadline`; afterwards now() == deadline.
  void run_until(TimeNs deadline) {
    CSMABW_REQUIRE(deadline >= now_, "deadline is in the past");
    processed_ += queue_.run_until(deadline, now_);
    now_ = deadline;
  }
  /// Runs until the event queue drains.
  void run() { processed_ += queue_.run_all(now_); }
  /// Runs until `done()` becomes true (checked after each event) or the
  /// queue drains.  Returns whether the predicate was satisfied.
  template <class Pred>
  bool run_while_pending(Pred done) {
    static_assert(std::is_invocable_r_v<bool, Pred&>,
                  "predicate must be callable and return bool");
    while (queue_.step(now_)) {
      ++processed_;
      if (done()) {
        return true;
      }
    }
    return done();
  }

  /// Scheduled one-shot events plus armed timers.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  /// Heap allocations the event queue has performed so far (slab chunks,
  /// heap- and timer-vector growth); constant across steady-state
  /// operation.
  [[nodiscard]] std::uint64_t event_allocations() const {
    return queue_.allocations();
  }

  /// Runtime-cost snapshot of a finished run, bundled so observability
  /// consumers (run reports, metrics) grab it in one call.  All values
  /// are pure functions of the workload — deterministic across runs.
  struct Cost {
    std::uint64_t events_processed = 0;
    std::uint64_t allocations = 0;     ///< slab chunks + vector growth
    std::uint64_t slot_capacity = 0;   ///< event slots currently owned
  };
  [[nodiscard]] Cost cost() const {
    return Cost{processed_, queue_.allocations(),
                static_cast<std::uint64_t>(queue_.slot_capacity())};
  }

  /// The simulation's event tap (nullptr = tracing disabled).  Owned by
  /// the caller; components sharing this simulator (stations, medium,
  /// queues) emit their MAC/queue events to it, so installing a sink
  /// here taps the whole simulation.  Purely observational.
  [[nodiscard]] trace::TraceSink* trace() const { return trace_; }
  void set_trace(trace::TraceSink* sink) { trace_ = sink; }

 private:
  TimeNs now_ = TimeNs::zero();
  EventQueue queue_;
  std::uint64_t processed_ = 0;
  trace::TraceSink* trace_ = nullptr;
};

}  // namespace csmabw::sim
