#include "core/owd_trend.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/method.hpp"
#include "core/queueing_transport.hpp"
#include "core/scenario.hpp"
#include "stats/rng.hpp"
#include "util/require.hpp"

namespace csmabw::core {
namespace {

TEST(OwdTrendStats, StrictlyIncreasing) {
  std::vector<double> owd;
  for (int i = 0; i < 20; ++i) {
    owd.push_back(0.001 + 0.0001 * i);
  }
  const OwdTrend t = owd_trend(owd);
  EXPECT_DOUBLE_EQ(t.pct, 1.0);
  EXPECT_DOUBLE_EQ(t.pdt, 1.0);
  EXPECT_EQ(classify_trend(t), TrendVerdict::kIncreasing);
}

TEST(OwdTrendStats, PureNoiseIsNonIncreasing) {
  stats::Rng rng(1);
  std::vector<double> owd;
  for (int i = 0; i < 200; ++i) {
    owd.push_back(0.001 + rng.uniform(-1e-4, 1e-4));
  }
  const OwdTrend t = owd_trend(owd);
  EXPECT_NEAR(t.pct, 0.5, 0.08);
  EXPECT_NEAR(t.pdt, 0.0, 0.15);
  EXPECT_EQ(classify_trend(t), TrendVerdict::kNonIncreasing);
}

TEST(OwdTrendStats, NoisyRampStillDetected) {
  stats::Rng rng(2);
  std::vector<double> owd;
  for (int i = 0; i < 100; ++i) {
    owd.push_back(0.001 + 5e-5 * i + rng.uniform(-2e-5, 2e-5));
  }
  EXPECT_EQ(classify_trend(owd_trend(owd)), TrendVerdict::kIncreasing);
}

TEST(OwdTrendStats, FlatSeriesIsNeutral) {
  const std::vector<double> owd(10, 0.002);
  const OwdTrend t = owd_trend(owd);
  EXPECT_DOUBLE_EQ(t.pct, 0.5);
  EXPECT_DOUBLE_EQ(t.pdt, 0.0);
  EXPECT_EQ(classify_trend(t), TrendVerdict::kNonIncreasing);
}

TEST(OwdTrendStats, RejectsShortInput) {
  const std::vector<double> owd{1.0, 2.0};
  EXPECT_THROW((void)owd_trend(owd), util::PreconditionError);
}

TEST(OneWayDelays, FromTrainResult) {
  TrainResult r;
  r.packets.push_back({0, 1.0, 1.002, false});
  r.packets.push_back({1, 1.001, 1.004, false});
  r.packets.push_back({2, 1.002, 1.007, false});
  const auto owd = one_way_delays_s(r);
  ASSERT_EQ(owd.size(), 3u);
  EXPECT_NEAR(owd[0], 0.002, 1e-12);
  EXPECT_NEAR(owd[2], 0.005, 1e-12);
}

TEST(Slops, ConvergesOnQueueingLink) {
  // Constant 2 ms service: rates above 6 Mb/s (1500 B) build a queue and
  // an increasing OWD trend; below they do not.
  QueueingTransport::Config cfg;
  cfg.probe_service = [](int, stats::Rng& rng) {
    return rng.uniform(0.0019, 0.0021);
  };
  QueueingTransport link(cfg);
  const MeasurementReport r =
      MethodRegistry::global()
          .create("slops:train_length=60,trains_per_rate=3")
          ->run(link, /*seed=*/0);
  EXPECT_GT(r.estimate_bps, 4.8e6);
  EXPECT_LT(r.estimate_bps, 7.2e6);
  EXPECT_GT(r.trains_sent, 0);
  EXPECT_LE(r.metric("low_bps"), r.metric("high_bps"));
}

TEST(Slops, TracksAchievableOnWlan) {
  // Section 7.2: on a CSMA/CA link the OWD-trend tool lands on the
  // achievable throughput (fair share), not the available bandwidth.
  ScenarioConfig cell;
  cell.seed = 71;
  cell.contenders.push_back(StationSpec::poisson(BitRate::mbps(4.0), 1500));
  SimTransport link(cell);
  const MeasurementReport r =
      MethodRegistry::global()
          .create("slops:train_length=60,trains_per_rate=3,max_iterations=10")
          ->run(link, /*seed=*/0);
  const double capacity = cell.phy.saturation_rate(1500).to_bps();
  const double available = capacity - 4e6;  // ~2.9 Mb/s
  // Lands in the fair-share region, above the available bandwidth.
  EXPECT_GT(r.estimate_bps, available);
  EXPECT_LT(r.estimate_bps, 0.8 * capacity);
}

TEST(Slops, ValidatesOptions) {
  for (const char* spec : {"slops:train_length=2", "slops:skip_head=-1",
                           "slops:train_length=10,skip_head=8",
                           "slops:max_rate_mbps=0.25"}) {
    EXPECT_THROW((void)MethodRegistry::global().create(spec),
                 util::PreconditionError)
        << spec;
  }
}

}  // namespace
}  // namespace csmabw::core
