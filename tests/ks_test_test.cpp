#include "stats/ks_test.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/rng.hpp"
#include "util/require.hpp"

namespace csmabw::stats {
namespace {

// Hand-computed statistics.  The reference's interpolated ECDF is
// F(x_(k)) = k/m at its k-th order statistic, linear in between, 0 left
// of it and 1 right of it; the sample's ECDF is a right-continuous step.

TEST(InterpolatedEcdf, KnownPoints) {
  const std::vector<double> ref{1.0, 2.0, 3.0, 4.0};
  // Midway between 1 and 2 the reference reads 0.375, where a single
  // sample value jumps from 0 to 1.
  EXPECT_DOUBLE_EQ(ks_statistic(std::vector<double>{1.5}, ref), 0.625);
  // At its first value the reference reads 1/4.
  EXPECT_DOUBLE_EQ(ks_statistic(std::vector<double>{1.0}, ref), 0.75);
  // Both tails: 0 left of the reference, where the sample below already
  // reads 1/5 (the maximum, also reached at 1 and below 4), and 1 right
  // of it, where {2.5, 9} finishes its step (the maximum, 0.625, is the
  // reference's 5/8 at 2.5 against 0 below it).
  EXPECT_DOUBLE_EQ(
      ks_statistic(std::vector<double>{0.5, 1.0, 2.0, 3.0, 4.0}, ref), 0.2);
  EXPECT_DOUBLE_EQ(ks_statistic(std::vector<double>{2.5, 9.0}, ref), 0.625);
}

TEST(StepEcdf, RightContinuous) {
  // At 0 the sample's step counts its whole run of three: 3/4 against
  // the reference's 1/4.
  const std::vector<double> ref{0.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(ks_statistic(std::vector<double>{0.0, 0.0, 0.0, 3.0}, ref),
                   0.5);
}

TEST(KsStatistic, IdenticalLargeSamplesNearZero) {
  Rng r(1);
  std::vector<double> xs;
  for (int i = 0; i < 4000; ++i) {
    xs.push_back(r.uniform01());
  }
  // Same sample against itself: only the interpolation offset remains.
  EXPECT_LT(ks_statistic(xs, xs), 0.01);
}

TEST(KsStatistic, DisjointSupportsReachOne) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{10.0, 11.0, 12.0};
  EXPECT_NEAR(ks_statistic(a, b), 1.0, 1e-12);
}

TEST(KsStatistic, SymmetricEnough) {
  Rng r(2);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 1000; ++i) {
    a.push_back(r.uniform01());
    b.push_back(r.uniform01() + 0.2);
  }
  const double d1 = ks_statistic(a, b);
  const double d2 = ks_statistic(b, a);
  EXPECT_NEAR(d1, d2, 0.02);
  EXPECT_NEAR(d1, 0.2, 0.05);  // shift of a uniform by 0.2
}

TEST(KsStatistic, UnsortedInputAccepted) {
  const std::vector<double> a{3.0, 1.0, 2.0};
  const std::vector<double> b{2.5, 0.5, 1.5};
  EXPECT_GT(ks_statistic(a, b), 0.0);
  EXPECT_LE(ks_statistic(a, b), 1.0);
}

TEST(KsStatistic, SharedAtomIsNotDivergence) {
  // Regression: access-delay distributions carry large atoms (the
  // deterministic DIFS + airtime delay of an uncontended transmission).
  // Two samples of the same atomic mixture must score near zero, not
  // near the atom mass.
  Rng r(9);
  auto draw = [&](int n) {
    std::vector<double> xs;
    for (int i = 0; i < n; ++i) {
      xs.push_back(r.uniform01() < 0.6 ? 1.25e-3
                                       : 1.25e-3 + r.exponential(1e-3));
    }
    return xs;
  };
  const auto a = draw(2000);
  const auto b = draw(2000);
  EXPECT_LT(ks_statistic(a, b), 0.05);
}

TEST(KsStatistic, AtomMassShiftDetected) {
  // Same support, different atom weights: the divergence equals the
  // weight difference.
  Rng r(10);
  auto draw = [&](int n, double w) {
    std::vector<double> xs;
    for (int i = 0; i < n; ++i) {
      xs.push_back(r.uniform01() < w ? 1.0 : 1.0 + r.exponential(1.0));
    }
    return xs;
  };
  const auto a = draw(3000, 0.8);
  const auto b = draw(3000, 0.4);
  EXPECT_NEAR(ks_statistic(a, b), 0.4, 0.06);
}

TEST(InterpolatedEcdf, LeftLimitAtAtom) {
  const std::vector<double> ref{1.0, 2.0, 2.0, 2.0, 3.0};
  // Just below the atom at 2 the ramp reaches (j+1)/m = 2/5, where the
  // sample {2} still reads 0.
  EXPECT_DOUBLE_EQ(ks_statistic(std::vector<double>{2.0}, ref), 0.4);
  // At the atom the reference jumps over the whole run to 4/5 and ramps
  // on to 1 at 3, so it reads 0.9 at 2.5.
  EXPECT_DOUBLE_EQ(ks_statistic(std::vector<double>{2.5}, ref), 0.9);
  // The same atomic sample against itself keeps only the interpolation's
  // 1/m lead below each value; comparing the sample's step at 2 (4/5)
  // with the reference's left limit (2/5) would read 0.4.
  EXPECT_DOUBLE_EQ(ks_statistic(ref, ref), 0.2);
}

TEST(StepEcdf, LeftLimit) {
  // Just below 3 the sample's step has counted only its first value
  // (1/4), while the reference has ramped up to 1.
  const std::vector<double> ref{0.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(ks_statistic(std::vector<double>{0.0, 3.0, 3.0, 3.0}, ref),
                   0.75);
}

TEST(KsStatistic, RejectsEmpty) {
  const std::vector<double> some{1.0};
  EXPECT_THROW((void)ks_statistic({}, some), util::PreconditionError);
  EXPECT_THROW((void)ks_statistic(some, {}), util::PreconditionError);
}

TEST(KsThreshold, MatchesClosedForm) {
  // c(0.05) = sqrt(-ln(0.025)/2) ~= 1.3581
  const double expected = 1.3581015157406195 *
                          std::sqrt((100.0 + 400.0) / (100.0 * 400.0));
  EXPECT_NEAR(ks_threshold(100, 400, 0.05), expected, 1e-9);
}

TEST(KsThreshold, TighterWithMoreSamples) {
  EXPECT_LT(ks_threshold(1000, 1000), ks_threshold(100, 100));
}

TEST(KsThreshold, RejectsBadInput) {
  EXPECT_THROW((void)ks_threshold(0, 10), util::PreconditionError);
  EXPECT_THROW((void)ks_threshold(10, 10, 0.0), util::PreconditionError);
}

/// Statistical power: equal distributions stay below the 95% threshold
/// most of the time; shifted ones exceed it.  Run over several seeds.
class KsPower : public ::testing::TestWithParam<int> {};

TEST_P(KsPower, DetectsShiftNotNoise) {
  Rng r(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> shifted;
  for (int i = 0; i < 500; ++i) {
    a.push_back(r.exponential(1.0));
    b.push_back(r.exponential(1.0));
    shifted.push_back(r.exponential(1.0) + 0.5);
  }
  const double thr = ks_threshold(a.size(), b.size());
  EXPECT_GT(ks_statistic(a, shifted), thr);
  // Same-distribution comparison should not exceed 2x threshold (the 5%
  // false-positive budget makes an exact bound per-seed too strict).
  EXPECT_LT(ks_statistic(a, b), 2.0 * thr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KsPower, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace csmabw::stats
