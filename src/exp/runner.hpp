#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "exp/progress.hpp"

namespace csmabw::exp {

struct RunnerOptions {
  /// Worker threads; <= 0 resolves via `resolve_threads(0)` (the
  /// CSMABW_THREADS environment variable, else hardware concurrency).
  int threads = 0;
  /// Optional reporter, ticked once per completed job.
  Progress* progress = nullptr;
};

/// Resolves a requested thread count: a positive request wins, otherwise
/// the CSMABW_THREADS environment variable (unset or empty skips it; a
/// value that is not a whole positive integer throws
/// util::PreconditionError), otherwise
/// std::thread::hardware_concurrency() (at least 1).
[[nodiscard]] int resolve_threads(int requested);

/// Fixed-size worker pool executing an indexed job list.
///
/// Work is handed out by an atomic cursor, so scheduling is
/// nondeterministic — but jobs are pure functions of their index and
/// results are placed by index, which makes every campaign output
/// independent of the thread count.  The first exception thrown by any
/// job is rethrown on the calling thread after all workers drain.
class Runner {
 public:
  explicit Runner(RunnerOptions opts = {});

  [[nodiscard]] int threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, jobs).  Taken by value and moved, so
  /// passing an rvalue lambda never copies its captures.
  void for_each(int jobs, std::function<void(int)> fn) const;

  /// Runs fn(i) for every i and collects the results by job index.
  /// R must be movable; construction happens on the worker threads.
  template <typename F>
  [[nodiscard]] auto map(int jobs, F&& fn) const
      -> std::vector<decltype(fn(0))> {
    using R = decltype(fn(0));
    std::vector<std::unique_ptr<R>> slots(static_cast<std::size_t>(jobs));
    for_each(jobs, [&](int i) {
      slots[static_cast<std::size_t>(i)] = std::make_unique<R>(fn(i));
    });
    std::vector<R> out;
    out.reserve(static_cast<std::size_t>(jobs));
    for (auto& slot : slots) {
      out.push_back(std::move(*slot));
    }
    return out;
  }

 private:
  int threads_;
  Progress* progress_;
};

}  // namespace csmabw::exp
