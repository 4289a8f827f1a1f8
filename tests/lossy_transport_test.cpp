// Failure injection: measurement tools must survive lossy links.
#include <gtest/gtest.h>

#include "core/method.hpp"
#include "core/queueing_transport.hpp"
#include "util/require.hpp"

namespace csmabw::core {
namespace {

/// Decorator that corrupts trains from an inner transport: every k-th
/// train loses one packet.
class LossyTransport : public ProbeTransport {
 public:
  LossyTransport(ProbeTransport& inner, int lose_every)
      : inner_(inner), lose_every_(lose_every) {}

  TrainResult send_train(const traffic::TrainSpec& spec) override {
    TrainResult r = inner_.send_train(spec);
    if (++count_ % lose_every_ == 0 && !r.packets.empty()) {
      r.packets[r.packets.size() / 2].lost = true;
    }
    return r;
  }

 private:
  ProbeTransport& inner_;
  int lose_every_;
  int count_ = 0;
};

QueueingTransport::Config healthy_link() {
  QueueingTransport::Config cfg;
  cfg.probe_service = [](int, stats::Rng& rng) {
    return rng.uniform(0.0019, 0.0021);
  };
  return cfg;
}

MeasurementReport run(const char* spec, ProbeTransport& transport) {
  return MethodRegistry::global().create(spec)->run(transport, /*seed=*/0);
}

TEST(LossyLink, EstimatorSkipsLostTrainsAndCounts) {
  QueueingTransport inner(healthy_link());
  LossyTransport lossy(inner, /*lose_every=*/3);
  const MeasurementReport r =
      run("train_sweep:train_length=30,trains_per_rate=9,grid=2,"
          "min_rate_mbps=2,max_rate_mbps=3",
          lossy);
  // A third of the trains are lost, three at each rate; the measurement
  // still lands.
  EXPECT_NEAR(r.curve.points.at(0).output_bps, 2e6, 0.1e6);
  EXPECT_EQ(r.trains_sent, 18);
  EXPECT_EQ(r.trains_lost, 6);
}

TEST(LossyLink, EstimatorFailsCleanlyWhenEverythingLost) {
  QueueingTransport inner(healthy_link());
  LossyTransport lossy(inner, /*lose_every=*/1);
  EXPECT_THROW(
      (void)run("train_sweep:train_length=30,trains_per_rate=4", lossy),
      util::PreconditionError);
}

TEST(LossyLink, PacketPairReportsLostPairs) {
  QueueingTransport inner(healthy_link());
  LossyTransport lossy(inner, /*lose_every=*/4);
  const MeasurementReport r = run("packet_pair:size_bytes=1500,pairs=8", lossy);
  EXPECT_EQ(r.trains_lost, 2);
  EXPECT_EQ(r.metric("pairs_used"), 6);
  EXPECT_GT(r.estimate_bps, 0.0);
}

TEST(LossyLink, SlopsIgnoresIncompleteTrains) {
  QueueingTransport inner(healthy_link());
  LossyTransport lossy(inner, /*lose_every=*/2);
  const MeasurementReport r =
      run("slops:train_length=40,trains_per_rate=4,max_iterations=8", lossy);
  // Half the trains vanish; the bisection still converges to the same
  // band as on the clean link (~6 Mb/s service rate).
  EXPECT_GT(r.estimate_bps, 4.5e6);
  EXPECT_LT(r.estimate_bps, 7.5e6);
}

}  // namespace
}  // namespace csmabw::core
