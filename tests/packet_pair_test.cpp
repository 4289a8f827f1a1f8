#include "core/method.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/queueing_transport.hpp"
#include "core/scenario.hpp"
#include "util/require.hpp"

namespace csmabw::core {
namespace {

MeasurementReport packet_pairs(ProbeTransport& t, int size_bytes, int pairs) {
  return MethodRegistry::global()
      .create("packet_pair:size_bytes=" + std::to_string(size_bytes) +
              ",pairs=" + std::to_string(pairs))
      ->run(t, /*seed=*/0);
}

TEST(PacketPair, ConstantServiceYieldsServiceRate) {
  // On a fixed-service FIFO link the pair dispersion equals the service
  // time — the classic capacity interpretation.
  QueueingTransport::Config cfg;
  cfg.probe_service = [](int, stats::Rng&) { return 0.002; };
  QueueingTransport t(cfg);
  const MeasurementReport r = packet_pairs(t, 1500, 10);
  EXPECT_EQ(r.metric("pairs_used"), 10);
  EXPECT_NEAR(r.metric("mean_gap_s"), 0.002, 1e-9);
  EXPECT_NEAR(r.estimate_bps, 1500 * 8 / 0.002, 1.0);
}

TEST(PacketPair, OverestimatesWhenSecondPacketAccelerated) {
  // Paper Section 7.3: the pair rides the transient, so the dispersion
  // is smaller than the steady-state service time and the estimate is
  // optimistic.
  QueueingTransport::Config cfg;
  cfg.probe_service = [](int index, stats::Rng&) {
    return index < 2 ? 0.001 : 0.002;  // both pair packets accelerated
  };
  QueueingTransport t(cfg);
  const MeasurementReport r = packet_pairs(t, 1500, 10);
  const double steady_rate = 1500 * 8 / 0.002;
  EXPECT_GT(r.estimate_bps, steady_rate);
}

TEST(PacketPair, WlanPairTargetsAchievableNotCapacity) {
  // Against a contended WLAN link the pair estimate lands far below the
  // link capacity (it chases the achievable throughput, Fig 16).
  ScenarioConfig cfg;
  cfg.seed = 21;
  cfg.contenders.push_back(StationSpec::poisson(BitRate::mbps(4.0), 1500));
  SimTransport t(cfg);
  const MeasurementReport r = packet_pairs(t, 1500, 40);
  const double capacity = cfg.phy.saturation_rate(1500).to_bps();
  EXPECT_LT(r.estimate_bps, 0.85 * capacity);
  EXPECT_GT(r.estimate_bps, 0.15 * capacity);
}

TEST(PacketPair, UncontendedPairSeesCapacity) {
  // With no cross-traffic the second packet queues behind the first and
  // the dispersion equals one service cycle: L/gap ~= C.
  ScenarioConfig cfg;
  cfg.seed = 22;
  SimTransport t(cfg);
  const MeasurementReport r = packet_pairs(t, 1500, 20);
  const double capacity = cfg.phy.saturation_rate(1500).to_bps();
  EXPECT_NEAR(r.estimate_bps, capacity, 0.15 * capacity);
}

TEST(PacketPair, RejectsBadArguments) {
  QueueingTransport::Config cfg;
  cfg.probe_service = [](int, stats::Rng&) { return 0.001; };
  QueueingTransport t(cfg);
  EXPECT_THROW((void)packet_pairs(t, 0, 10), util::PreconditionError);
  EXPECT_THROW((void)packet_pairs(t, 1500, 0), util::PreconditionError);
}

}  // namespace
}  // namespace csmabw::core
