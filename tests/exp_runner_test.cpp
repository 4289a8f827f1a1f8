#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/progress.hpp"
#include "scoped_env.hpp"
#include "util/require.hpp"

namespace csmabw::exp {
namespace {

Runner make_runner(int threads, Progress* progress = nullptr) {
  RunnerOptions opts;
  opts.threads = threads;
  opts.progress = progress;
  return Runner(opts);
}

TEST(Runner, ExecutesEveryJobExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(37);
    make_runner(threads).for_each(
        37, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(Runner, ZeroJobsIsANoop) {
  make_runner(4).for_each(0, [](int) { FAIL() << "must not be called"; });
}

TEST(Runner, MapCollectsResultsByIndexRegardlessOfThreads) {
  const auto square = [](int i) { return i * i; };
  const auto serial = make_runner(1).map(25, square);
  const auto parallel = make_runner(8).map(25, square);
  EXPECT_EQ(serial, parallel);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(serial[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(Runner, PropagatesTheFirstJobException) {
  for (int threads : {1, 4}) {
    EXPECT_THROW(
        make_runner(threads).for_each(16,
                                      [](int i) {
                                        if (i == 5) {
                                          throw std::runtime_error("boom");
                                        }
                                      }),
        std::runtime_error);
  }
}

TEST(Runner, TicksProgressOncePerJob) {
  Progress progress(12, "test", /*enabled=*/false);
  make_runner(3, &progress).for_each(12, [](int) {});
  EXPECT_EQ(progress.done(), 12);
}

TEST(Runner, ResolveThreadsPrefersExplicitRequest) {
  EXPECT_EQ(resolve_threads(5), 5);
  EXPECT_GE(resolve_threads(0), 1);
  EXPECT_GE(resolve_threads(-3), 1);
}

TEST(Runner, ResolveThreadsParsesTheEnvironmentWhole) {
  {
    const ScopedEnv env("CSMABW_THREADS", "3");
    EXPECT_EQ(resolve_threads(0), 3);
    EXPECT_EQ(resolve_threads(5), 5);  // an explicit request wins
  }
  for (const char* bad : {"abc", "4x", "2.5", "0", "-2", " 4", "+4"}) {
    const ScopedEnv env("CSMABW_THREADS", bad);
    EXPECT_EQ(resolve_threads(2), 2);  // not consulted
    try {
      (void)resolve_threads(0);
      ADD_FAILURE() << "accepted CSMABW_THREADS=" << bad;
    } catch (const util::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("CSMABW_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Progress, CountsAndFinishIsIdempotent) {
  Progress progress(3, "p", /*enabled=*/false);
  progress.tick();
  progress.tick(2);
  EXPECT_EQ(progress.done(), 3);
  progress.finish();
  progress.finish();
}

}  // namespace
}  // namespace csmabw::exp
