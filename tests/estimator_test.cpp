// The dispersion tools, train_sweep and bisection, built from specs.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/method.hpp"
#include "core/queueing_transport.hpp"
#include "core/scenario.hpp"
#include "util/require.hpp"

namespace csmabw::core {
namespace {

/// A queueing link whose steady-state service rate corresponds to 6 Mb/s
/// for 1500-byte packets (service 2 ms), with an accelerated head that
/// mimics the WLAN transient.
QueueingTransport::Config transient_link() {
  QueueingTransport::Config cfg;
  cfg.probe_service = [](int index, stats::Rng& rng) {
    const double level = index < 6 ? 0.0012 : 0.002;
    return rng.uniform(level * 0.95, level * 1.05);
  };
  return cfg;
}

/// Runs the tool `spec` describes over `transport`.
MeasurementReport run(const std::string& spec, ProbeTransport& transport) {
  return MethodRegistry::global().create(spec)->run(transport, /*seed=*/0);
}

/// The output rate at `rate_mbps`: the first point of a two-point
/// train_sweep starting there (it draws the same trains a single-rate
/// measurement would).
double output_bps_at(const std::string& knobs, double rate_mbps,
                     ProbeTransport& transport) {
  const MeasurementReport r =
      run("train_sweep:" + knobs + ",grid=2,min_rate_mbps=" +
              std::to_string(rate_mbps) + ",max_rate_mbps=12",
          transport);
  EXPECT_DOUBLE_EQ(r.curve.points.at(0).input_bps, rate_mbps * 1e6);
  return r.curve.points.at(0).output_bps;
}

TEST(Estimator, MeasureRateTransparentBelowCapacity) {
  QueueingTransport t(transient_link());
  EXPECT_NEAR(output_bps_at("train_length=30,trains_per_rate=5", 2.0, t),
              2e6, 0.05e6);
}

TEST(Estimator, SweepFitsAchievableThroughput) {
  QueueingTransport t(transient_link());
  const MeasurementReport sweep =
      run("train_sweep:train_length=50,trains_per_rate=8,min_rate_mbps=1,"
          "max_rate_mbps=10,grid=10",
          t);
  ASSERT_EQ(sweep.curve.points.size(), 10u);
  EXPECT_DOUBLE_EQ(sweep.curve.points[3].input_bps, 4e6);
  // Steady service 2 ms -> 6 Mb/s; the transient inflates it slightly.
  EXPECT_NEAR(sweep.estimate_bps, 6e6, 0.7e6);
}

TEST(Estimator, MserCorrectionTightensShortTrainEstimate) {
  // Short trains + transient: the raw estimate overshoots the
  // steady-state achievable throughput; MSER-2 pulls it back (Fig 17).
  QueueingTransport t_raw(transient_link());
  QueueingTransport t_mser(transient_link());
  const std::string knobs = "train_length=20,trains_per_rate=40";

  const double probe_mbps = 9.0;  // well above the 6 Mb/s steady rate
  const double steady = 6e6;
  const double raw_err =
      std::abs(output_bps_at(knobs, probe_mbps, t_raw) - steady);
  const double cor_err = std::abs(
      output_bps_at(knobs + ",mser=1", probe_mbps, t_mser) - steady);
  EXPECT_LT(cor_err, raw_err);
}

TEST(Estimator, AdaptiveSearchConvergesOnWlan) {
  ScenarioConfig cfg;
  cfg.seed = 31;
  cfg.contenders.push_back(StationSpec::poisson(BitRate::mbps(4.0), 1500));
  SimTransport t(cfg);
  const double b =
      run("bisection:train_length=40,trains_per_rate=3,max_iterations=10", t)
          .estimate_bps;
  // Fair share against a 4 Mb/s contender on a ~6.9 Mb/s link is around
  // 3.4-3.9 Mb/s; the adaptive search must land in that region.
  EXPECT_GT(b, 2.8e6);
  EXPECT_LT(b, 5.0e6);
}

TEST(Estimator, SweepOnWlanFlattensAtFairShare) {
  ScenarioConfig cfg;
  cfg.seed = 32;
  cfg.contenders.push_back(StationSpec::poisson(BitRate::mbps(4.5), 1500));
  SimTransport t(cfg);
  const MeasurementReport sweep =
      run("train_sweep:train_length=60,trains_per_rate=4,min_rate_mbps=1,"
          "max_rate_mbps=9,grid=5",
          t);
  // Low rates pass through; high rates flatten near the fair share.
  ASSERT_EQ(sweep.curve.points.size(), 5u);
  EXPECT_NEAR(sweep.curve.points.front().output_bps, 1e6, 0.1e6);
  EXPECT_LT(sweep.curve.points.back().output_bps, 5e6);
  EXPECT_GT(sweep.estimate_bps, 2.5e6);
  EXPECT_LT(sweep.estimate_bps, 5e6);
}

TEST(Estimator, ValidatesOptions) {
  const MethodRegistry& registry = MethodRegistry::global();
  for (const char* tool : {"bisection", "train_sweep"}) {
    const std::string name(tool);
    EXPECT_THROW((void)registry.create(name + ":train_length=2"),
                 util::PreconditionError);
    EXPECT_THROW((void)registry.create(name + ":rel_tol=0"),
                 util::PreconditionError);
    EXPECT_THROW((void)registry.create(name + ":max_rate_mbps=0.25"),
                 util::PreconditionError);
  }
}

TEST(Estimator, MeasureRateRejectsNonPositive) {
  // Every probed rate lies in [min_rate, max_rate], so a non-positive
  // rate is rejected when the tool is made.
  for (const char* spec : {"train_sweep:min_rate_mbps=0",
                           "train_sweep:min_rate_mbps=-1",
                           "bisection:min_rate_mbps=0"}) {
    EXPECT_THROW((void)MethodRegistry::global().create(spec),
                 util::PreconditionError)
        << spec;
  }
}

TEST(Estimator, SweepNeedsTwoRates) {
  EXPECT_THROW((void)MethodRegistry::global().create("train_sweep:grid=1"),
               util::PreconditionError);
}

}  // namespace
}  // namespace csmabw::core
