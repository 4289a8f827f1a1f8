#include "core/transient.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "stats/ks_test.hpp"
#include "stats/rng.hpp"
#include "util/require.hpp"

namespace csmabw::core {
namespace {

/// Synthetic access-delay repetition: exponential noise around a mean
/// that ramps from `lo` to `hi` over `ramp` packets — the shape the DCF
/// produces (Fig 6).
std::vector<double> synthetic_rep(int n, int ramp, double lo, double hi,
                                  stats::Rng& rng) {
  std::vector<double> xs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double level =
        i >= ramp ? hi : lo + (hi - lo) * static_cast<double>(i) / ramp;
    xs[static_cast<std::size_t>(i)] = rng.exponential(level);
  }
  return xs;
}

TransientConfig config(int train_length, int ks_prefix, int steady_tail,
                       std::vector<int> extra_raw_indices = {}) {
  TransientConfig cfg;
  cfg.train_length = train_length;
  cfg.ks_prefix = ks_prefix;
  cfg.steady_tail = steady_tail;
  cfg.extra_raw_indices = std::move(extra_raw_indices);
  return cfg;
}

TransientConfig small_config() {
  TransientConfig cfg;
  cfg.train_length = 120;
  cfg.ks_prefix = 40;
  cfg.steady_tail = 40;
  return cfg;
}

TEST(TransientAnalyzer, MeanCurveRecoversRamp) {
  TransientAnalyzer ta(small_config());
  stats::Rng rng(1);
  for (int rep = 0; rep < 3000; ++rep) {
    ta.add_repetition(synthetic_rep(120, 20, 0.001, 0.003, rng));
  }
  EXPECT_NEAR(ta.mean_at(0), 0.001, 0.0002);
  EXPECT_NEAR(ta.mean_at(30), 0.003, 0.0002);
  EXPECT_NEAR(ta.steady_mean(), 0.003, 0.0002);
  // The curve is (stochastically) increasing over the ramp.
  EXPECT_LT(ta.mean_at(2), ta.mean_at(10));
  EXPECT_LT(ta.mean_at(10), ta.mean_at(19));
}

TEST(TransientAnalyzer, KsCurveFallsBelowThreshold) {
  TransientAnalyzer ta(small_config());
  stats::Rng rng(2);
  for (int rep = 0; rep < 1500; ++rep) {
    ta.add_repetition(synthetic_rep(120, 20, 0.001, 0.003, rng));
  }
  // Early packets: distribution differs from steady state.
  EXPECT_GT(ta.ks_at(0), ta.ks_threshold_at(0));
  // Packets past the ramp: distribution matches.
  EXPECT_LT(ta.ks_at(35), 1.5 * ta.ks_threshold_at(35));
  const auto curve = ta.ks_curve();
  EXPECT_EQ(curve.size(), 40u);
  EXPECT_GT(curve[0], curve[35]);
}

TEST(TransientAnalyzer, TransientLengthMatchesRamp) {
  TransientAnalyzer ta(small_config());
  stats::Rng rng(3);
  for (int rep = 0; rep < 4000; ++rep) {
    ta.add_repetition(synthetic_rep(120, 20, 0.001, 0.003, rng));
  }
  const int len01 = ta.transient_length(0.1);
  // Mean reaches within 10% of 0.003 at ~17/20 of the ramp.
  EXPECT_GE(len01, 10);
  EXPECT_LE(len01, 25);
  // A tighter tolerance cannot shorten the detected transient.
  EXPECT_GE(ta.transient_length(0.01), len01);
}

TEST(TransientAnalyzer, StationarySeriesHasNoTransient) {
  TransientAnalyzer ta(small_config());
  stats::Rng rng(4);
  for (int rep = 0; rep < 2000; ++rep) {
    ta.add_repetition(synthetic_rep(120, 0, 0.003, 0.003, rng));
  }
  EXPECT_LE(ta.transient_length(0.1), 2);
  EXPECT_LT(ta.ks_at(0), 1.5 * ta.ks_threshold_at(0));
}

TEST(TransientAnalyzer, NeverSettlingReportsTrainLength) {
  TransientConfig cfg = small_config();
  TransientAnalyzer ta(cfg);
  stats::Rng rng(5);
  for (int rep = 0; rep < 200; ++rep) {
    // Monotone ramp across the whole train: never within 1% of the tail.
    std::vector<double> xs(static_cast<std::size_t>(cfg.train_length));
    for (int i = 0; i < cfg.train_length; ++i) {
      xs[static_cast<std::size_t>(i)] = 0.001 * (1.0 + i);
    }
    ta.add_repetition(xs);
  }
  EXPECT_EQ(ta.transient_length(1e-6, /*window=*/5), cfg.train_length);
}

TEST(TransientAnalyzer, SamplesExposedForHistograms) {
  TransientAnalyzer ta(small_config());
  stats::Rng rng(6);
  for (int rep = 0; rep < 10; ++rep) {
    ta.add_repetition(synthetic_rep(120, 20, 0.001, 0.003, rng));
  }
  EXPECT_EQ(ta.sample_at(0).size(), 10u);
  EXPECT_EQ(ta.steady_sample().size(), 400u);
  EXPECT_EQ(ta.repetitions(), 10);
}

TEST(TransientAnalyzer, RejectsNonFiniteDelays) {
  TransientAnalyzer ta(small_config());
  std::vector<double> xs(120, 0.001);
  xs[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ta.add_repetition(xs), util::PreconditionError);
  xs[3] = -1.0;
  EXPECT_THROW(ta.add_repetition(xs), util::PreconditionError);
}

TEST(TransientAnalyzer, RejectsBadConfig) {
  TransientConfig cfg;
  cfg.train_length = 1;
  EXPECT_THROW(TransientAnalyzer{cfg}, util::PreconditionError);
  cfg = small_config();
  cfg.steady_tail = 0;
  EXPECT_THROW(TransientAnalyzer{cfg}, util::PreconditionError);
}

TEST(TransientAnalyzer, KsCurveMatchesKsAtBitForBit) {
  // Delays on a 20 us slot grid with an atom at the uncontended delay:
  // the pool repeats values heavily, as a DCF campaign's does.
  TransientAnalyzer ta(small_config());
  stats::Rng rng(7);
  std::vector<double> xs(120);
  for (int rep = 0; rep < 300; ++rep) {
    for (int i = 0; i < 120; ++i) {
      const int slots =
          rng.uniform01() < 0.4 ? 0 : rng.uniform_int(0, i < 20 ? 15 : 63);
      xs[static_cast<std::size_t>(i)] = 1.25e-3 + 20e-6 * slots;
    }
    ta.add_repetition(xs);
  }
  const std::vector<double> curve = ta.ks_curve();
  ASSERT_EQ(curve.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(curve[static_cast<std::size_t>(i)], ta.ks_at(i)) << "index " << i;
    EXPECT_EQ(ta.ks_at(i),
              stats::ks_statistic(ta.sample_at(i), ta.steady_sample()));
  }
  EXPECT_GT(curve[0], curve[39]);
}

TEST(TransientAnalyzer, MergeComparesTheNormalizedConfig) {
  // Extra indices are sorted, deduplicated and cut to those past the
  // prefix once, so two spellings of one configuration merge.
  TransientAnalyzer a(config(6, 2, 1, {4, 1, 4, 3}));
  TransientAnalyzer b(config(6, 2, 1, {3, 4}));
  EXPECT_EQ(a.config().extra_raw_indices, (std::vector<int>{3, 4}));
  a.add_repetition(std::vector<double>{1, 2, 3, 4, 5, 6});
  b.add_repetition(std::vector<double>{7, 8, 9, 10, 11, 12});
  a.merge(b);
  EXPECT_EQ(a.repetitions(), 2);
  EXPECT_EQ(a.sample_at(4).size(), 2u);
  EXPECT_DOUBLE_EQ(a.sample_at(4)[1], 11.0);
  TransientAnalyzer longer_tail(config(6, 2, 2, {3, 4}));
  EXPECT_THROW(a.merge(longer_tail), util::PreconditionError);
}

TEST(TransientAnalyzer, TransientLengthValidatesArguments) {
  TransientAnalyzer ta(small_config());
  std::vector<double> xs(120, 0.001);
  ta.add_repetition(xs);
  EXPECT_THROW((void)ta.transient_length(0.0), util::PreconditionError);
  EXPECT_THROW((void)ta.transient_length(0.1, 0), util::PreconditionError);
}

// The analyzer's ensemble series: per-index means, raw samples of the
// prefix and of sparse extra indices, and the pooled steady-state tail.

TEST(EnsembleSeries, PerIndexMeans) {
  TransientAnalyzer ta(config(3, 3, 1));
  ta.add_repetition(std::vector<double>{1.0, 2.0, 3.0});
  ta.add_repetition(std::vector<double>{3.0, 4.0, 5.0});
  EXPECT_EQ(ta.repetitions(), 2);
  EXPECT_DOUBLE_EQ(ta.mean_at(0), 2.0);
  EXPECT_DOUBLE_EQ(ta.mean_at(1), 3.0);
  EXPECT_DOUBLE_EQ(ta.mean_at(2), 4.0);
  EXPECT_EQ(ta.mean_curve(), (std::vector<double>{2.0, 3.0, 4.0}));
}

TEST(EnsembleSeries, RawSamplesRetainedForPrefix) {
  TransientAnalyzer ta(config(4, 2, 1));
  ta.add_repetition(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  ta.add_repetition(std::vector<double>{5.0, 6.0, 7.0, 8.0});
  const auto raw0 = ta.sample_at(0);
  ASSERT_EQ(raw0.size(), 2u);
  EXPECT_DOUBLE_EQ(raw0[0], 1.0);
  EXPECT_DOUBLE_EQ(raw0[1], 5.0);
  EXPECT_THROW((void)ta.sample_at(2), util::PreconditionError);
  EXPECT_THROW((void)ta.sample_at(-1), util::PreconditionError);
}

TEST(EnsembleSeries, SteadyPoolCollectsTail) {
  TransientAnalyzer ta(config(4, 0, 2));
  ta.add_repetition(std::vector<double>{1.0, 2.0, 10.0, 20.0});
  ta.add_repetition(std::vector<double>{3.0, 4.0, 30.0, 40.0});
  EXPECT_EQ(ta.steady_sample().size(), 4u);
  EXPECT_EQ(std::vector<double>(ta.steady_sample().begin(),
                                ta.steady_sample().end()),
            (std::vector<double>{10.0, 20.0, 30.0, 40.0}));
  EXPECT_DOUBLE_EQ(ta.steady_mean(), 25.0);
}

TEST(EnsembleSeries, RejectsWrongLength) {
  TransientAnalyzer ta(config(3, 0, 1));
  EXPECT_THROW(ta.add_repetition(std::vector<double>{1.0}),
               util::PreconditionError);
  EXPECT_THROW(ta.add_repetition(std::vector<double>{1.0, 2.0, 3.0, 4.0}),
               util::PreconditionError);
  EXPECT_EQ(ta.repetitions(), 0);
}

TEST(EnsembleSeries, RejectsBadConfig) {
  EXPECT_THROW(TransientAnalyzer(config(0, 0, 1)), util::PreconditionError);
  EXPECT_THROW(TransientAnalyzer(config(3, 4, 1)), util::PreconditionError);
  EXPECT_THROW(TransientAnalyzer(config(3, -1, 1)), util::PreconditionError);
  EXPECT_THROW(TransientAnalyzer(config(3, 0, 4)), util::PreconditionError);
  // An extra index past the train is rejected, not dropped.
  EXPECT_THROW(TransientAnalyzer(config(3, 1, 1, {3})),
               util::PreconditionError);
}

TEST(EnsembleSeries, IndexBoundsChecked) {
  TransientAnalyzer ta(config(2, 0, 1));
  ta.add_repetition(std::vector<double>{1.0, 2.0});
  EXPECT_THROW((void)ta.mean_at(2), util::PreconditionError);
  EXPECT_THROW((void)ta.mean_at(-1), util::PreconditionError);
}

TEST(EnsembleSeries, MergeAppendsShardsInOrder) {
  TransientAnalyzer a(config(3, 2, 1));
  TransientAnalyzer b(config(3, 2, 1));
  a.add_repetition(std::vector<double>{1.0, 2.0, 3.0});
  b.add_repetition(std::vector<double>{4.0, 5.0, 6.0});
  b.add_repetition(std::vector<double>{7.0, 8.0, 9.0});
  a.merge(b);
  EXPECT_EQ(a.repetitions(), 3);
  EXPECT_DOUBLE_EQ(a.mean_at(0), 4.0);
  ASSERT_EQ(a.sample_at(0).size(), 3u);
  EXPECT_DOUBLE_EQ(a.sample_at(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(a.sample_at(0)[1], 4.0);
  EXPECT_DOUBLE_EQ(a.sample_at(0)[2], 7.0);
  ASSERT_EQ(a.steady_sample().size(), 3u);
  EXPECT_DOUBLE_EQ(a.steady_sample()[0], 3.0);
  EXPECT_DOUBLE_EQ(a.steady_sample()[2], 9.0);

  TransientAnalyzer mismatched(config(3, 1, 1));
  EXPECT_THROW(a.merge(mismatched), util::PreconditionError);
}

TEST(EnsembleSeries, SparseExtraRawIndices) {
  TransientAnalyzer a(config(5, 1, 1, {3}));
  TransientAnalyzer b(config(5, 1, 1, {3}));
  a.add_repetition(std::vector<double>{1, 2, 3, 4, 5});
  b.add_repetition(std::vector<double>{6, 7, 8, 9, 10});
  a.merge(b);
  ASSERT_EQ(a.sample_at(3).size(), 2u);
  EXPECT_DOUBLE_EQ(a.sample_at(3)[0], 4.0);
  EXPECT_DOUBLE_EQ(a.sample_at(3)[1], 9.0);
  EXPECT_THROW((void)a.sample_at(2), util::PreconditionError);

  TransientAnalyzer mismatched(config(5, 1, 1, {4}));
  EXPECT_THROW(a.merge(mismatched), util::PreconditionError);
  // Extra indices inside the prefix are redundant and dropped.
  TransientAnalyzer redundant(config(5, 2, 1, {0, 3}));
  redundant.add_repetition(std::vector<double>{1, 2, 3, 4, 5});
  EXPECT_EQ(redundant.config().extra_raw_indices, (std::vector<int>{3}));
  EXPECT_EQ(redundant.sample_at(0).size(), 1u);
  EXPECT_EQ(redundant.sample_at(3).size(), 1u);
}

}  // namespace
}  // namespace csmabw::core
