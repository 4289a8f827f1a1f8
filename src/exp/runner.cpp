#include "exp/runner.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "util/options.hpp"
#include "util/require.hpp"

namespace csmabw::exp {

int resolve_threads(int requested) {
  if (requested > 0) {
    return requested;
  }
  if (const char* env = std::getenv("CSMABW_THREADS");
      env != nullptr && *env != '\0') {
    const std::optional<int> parsed = util::parse_number<int>(env);
    CSMABW_REQUIRE(parsed.has_value() && *parsed > 0,
                   "CSMABW_THREADS expects a positive integer, got '" +
                       std::string(env) + "'");
    return *parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

Runner::Runner(RunnerOptions opts)
    : threads_(resolve_threads(opts.threads)), progress_(opts.progress) {}

void Runner::for_each(int jobs, std::function<void(int)> fn) const {
  CSMABW_REQUIRE(jobs >= 0, "job count must be >= 0");
  CSMABW_REQUIRE(fn != nullptr, "job function must be callable");
  if (jobs == 0) {
    return;
  }

  std::atomic<int> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  std::atomic<bool> aborted{false};

  auto work = [&] {
    while (!aborted.load(std::memory_order_relaxed)) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs) {
        return;
      }
      try {
        fn(i);
      } catch (...) {
        std::scoped_lock lock(error_mu);
        if (!first_error) {
          first_error = std::current_exception();
        }
        aborted.store(true, std::memory_order_relaxed);
        return;
      }
      if (progress_ != nullptr) {
        progress_->tick();
      }
    }
  };

  // One worker runs the loop on the calling thread.  A pool thread for it
  // halved BM_TraceAggHistogram's rate in process CPU time.
  const int workers = std::min(threads_, jobs);
  if (workers == 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back(work);
    }
    for (auto& t : pool) {
      t.join();
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace csmabw::exp
