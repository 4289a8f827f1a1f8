#include "stats/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "stats/lazy_mt64.hpp"
#include "stats/summary.hpp"
#include "util/require.hpp"

namespace csmabw::stats {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform01() == b.uniform01()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, NamedForksAreStable) {
  const Rng root(7);
  Rng f1 = root.fork("cross-traffic");
  Rng f2 = root.fork("cross-traffic");
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(f1.uniform01(), f2.uniform01());
  }
}

TEST(Rng, DistinctNamesGiveDistinctStreams) {
  const Rng root(7);
  Rng a = root.fork("a");
  Rng b = root.fork("b");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform01() == b.uniform01()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, IndexedForksAreStableAndDistinct) {
  const Rng root(99);
  Rng a0 = root.fork(std::uint64_t{0});
  Rng a0_again = root.fork(std::uint64_t{0});
  Rng a1 = root.fork(std::uint64_t{1});
  EXPECT_DOUBLE_EQ(a0.uniform01(), a0_again.uniform01());
  EXPECT_NE(a0.uniform01(), a1.uniform01());
}

TEST(Rng, ForkIndependentOfParentDraws) {
  const Rng root(5);
  Rng f_before = root.fork("child");
  Rng parent(5);
  (void)parent.uniform01();
  (void)parent.uniform01();
  Rng f_after = parent.fork("child");
  EXPECT_DOUBLE_EQ(f_before.uniform01(), f_after.uniform01());
}

TEST(Rng, Uniform01InRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng r(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = r.uniform_int(0, 7);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 7);
    saw_lo |= v == 0;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng r(4);
  EXPECT_EQ(r.uniform_int(5, 5), 5);
}

TEST(Rng, ExponentialMatchesMean) {
  Rng r(11);
  RunningStat s;
  for (int i = 0; i < 20000; ++i) {
    s.add(r.exponential(2.5));
  }
  EXPECT_NEAR(s.mean(), 2.5, 0.06);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng r(1);
  EXPECT_THROW((void)r.exponential(0.0), util::PreconditionError);
}

TEST(Rng, UniformRejectsEmptyRange) {
  Rng r(1);
  EXPECT_THROW((void)r.uniform(2.0, 2.0), util::PreconditionError);
  EXPECT_THROW((void)r.uniform_int(3, 2), util::PreconditionError);
}

// ------------------------------------------------- LazyMt64 vs the standard

constexpr std::uint64_t kSeeds[] = {0, 1, 42,
                                    std::numeric_limits<std::uint64_t>::max()};

/// Rng's seed mixer (SplitMix64 finalizer), copied as the reference for
/// how Rng seeds its engine.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

TEST(LazyMt64, IsAUniformRandomBitGeneratorWithTheStandardRange) {
  static_assert(std::uniform_random_bit_generator<LazyMt64>);
  static_assert(LazyMt64::min() == std::mt19937_64::min());
  static_assert(LazyMt64::max() == std::mt19937_64::max());
  static_assert(LazyMt64::kStateWords == std::mt19937_64::state_size);
}

TEST(LazyMt64, MatchesStdMt19937_64OverThreeBlocks) {
  for (const std::uint64_t seed : kSeeds) {
    LazyMt64 lazy(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(lazy(), ref()) << "seed " << seed << " draw " << i;
    }
  }
}

// A stream stays small: the Rng is built twice per station every
// lattice repetition.
static_assert(sizeof(Rng) <= 64);

TEST(LazyMt64, StoppedStreamsContinueAcrossChunkAndBlockBoundaries) {
  // Stops before any draw, among the streamed first outputs, on both
  // sides of the first output that needs the heap block (156) and of
  // the block edge (312).  A copy of the stopped stream draws the rest;
  // past 156 the copy owns its own block, and the original, drawing
  // after it, must still match.
  for (const int stop : {0, 15, 16, 17, 100, 155, 156, 157, 311, 312, 313}) {
    for (const std::uint64_t seed : kSeeds) {
      LazyMt64 lazy(seed);
      std::mt19937_64 ref(seed);
      for (int i = 0; i < stop; ++i) {
        ASSERT_EQ(lazy(), ref()) << "seed " << seed << " draw " << i;
      }
      std::mt19937_64 ref_again = ref;
      LazyMt64 resumed = lazy;
      for (int i = stop; i < stop + 400; ++i) {
        ASSERT_EQ(resumed(), ref())
            << "seed " << seed << " stopped at " << stop << ", draw " << i;
      }
      for (int i = stop; i < stop + 400; ++i) {
        ASSERT_EQ(lazy(), ref_again())
            << "seed " << seed << " original after the copy, draw " << i;
      }
    }
  }
}

TEST(Rng, DistributionsMatchStdMt19937_64SeededTheSameWay) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    std::mt19937_64 ref(mix64(seed));
    for (int i = 0; i < 400; ++i) {
      ASSERT_EQ(rng.uniform01(),
                std::uniform_real_distribution<double>(0.0, 1.0)(ref));
      ASSERT_EQ(rng.uniform(-3.0, 5.5),
                std::uniform_real_distribution<double>(-3.0, 5.5)(ref));
      ASSERT_EQ(rng.uniform_int(0, 1023),
                std::uniform_int_distribution<int>(0, 1023)(ref));
      ASSERT_EQ(rng.exponential(0.25),
                std::exponential_distribution<double>(4.0)(ref));
    }
  }
}

}  // namespace
}  // namespace csmabw::stats
