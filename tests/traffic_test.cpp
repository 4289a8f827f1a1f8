#include <gtest/gtest.h>

#include <vector>

#include "mac/wlan.hpp"
#include "traffic/flow_meter.hpp"
#include "traffic/probe_train.hpp"
#include "traffic/source.hpp"
#include "util/require.hpp"

namespace csmabw::traffic {
namespace {

using mac::Packet;
using mac::PhyParams;
using mac::WlanNetwork;

TEST(PoissonSource, MeanRateConverges) {
  WlanNetwork net(PhyParams::dot11b_short(), 21);
  auto& st = net.add_station();
  PoissonSource src(net.simulator(), st, 0, 1500, BitRate::mbps(2),
                    net.rng("p"));
  src.start(TimeNs::zero());
  net.simulator().run_until(TimeNs::sec(20));
  const double offered_mbps =
      src.generated() * 1500 * 8.0 / 20.0 / 1e6;
  EXPECT_NEAR(offered_mbps, 2.0, 0.1);
}

TEST(PoissonSource, StopHaltsArrivals) {
  WlanNetwork net(PhyParams::dot11b_short(), 22);
  auto& st = net.add_station();
  PoissonSource src(net.simulator(), st, 0, 1500, BitRate::mbps(2),
                    net.rng("p"));
  src.start(TimeNs::zero());
  net.simulator().run_until(TimeNs::sec(1));
  const auto before = src.generated();
  src.stop();
  net.simulator().run_until(TimeNs::sec(2));
  EXPECT_EQ(src.generated(), before);
}

TEST(CbrSource, ExactSpacingAndCount) {
  WlanNetwork net(PhyParams::dot11b_short(), 23);
  auto& st = net.add_station();
  CbrSource src(net.simulator(), st, 0, 1000, TimeNs::ms(5),
                /*max_packets=*/4);
  src.start(TimeNs::ms(10));
  net.simulator().run_until(TimeNs::sec(1));
  EXPECT_EQ(src.generated(), 4u);
  EXPECT_EQ(st.stats().enqueued, 4u);
}

TEST(CbrSource, UnboundedKeepsEmitting) {
  WlanNetwork net(PhyParams::dot11b_short(), 24);
  auto& st = net.add_station();
  CbrSource src(net.simulator(), st, 0, 1500, TimeNs::ms(10));
  src.start(TimeNs::zero());
  net.simulator().run_until(TimeNs::sec(1));
  EXPECT_NEAR(static_cast<double>(src.generated()), 100.0, 2.0);
}

TEST(OnOffSource, DutyCycleShapesOfferedLoad) {
  WlanNetwork net(PhyParams::dot11b_short(), 25);
  auto& st = net.add_station();
  // 50% duty cycle at 1 packet/ms during bursts.
  OnOffSource src(net.simulator(), st, 0, 200, TimeNs::ms(1), 0.05, 0.05,
                  net.rng("oo"));
  src.start(TimeNs::zero());
  net.simulator().run_until(TimeNs::sec(20));
  const double pps = static_cast<double>(src.generated()) / 20.0;
  EXPECT_NEAR(pps, 500.0, 75.0);
}

TEST(Source, DoubleStartRejected) {
  WlanNetwork net(PhyParams::dot11b_short(), 26);
  auto& st = net.add_station();
  CbrSource src(net.simulator(), st, 0, 1500, TimeNs::ms(1));
  src.start(TimeNs::zero());
  EXPECT_THROW(src.start(TimeNs::ms(1)), util::PreconditionError);
}

TEST(ProbeTrain, RecordsAllPacketsInOrder) {
  WlanNetwork net(PhyParams::dot11b_short(), 27);
  auto& st = net.add_station();
  TrainSpec spec;
  spec.n = 5;
  spec.size_bytes = 1000;
  spec.gap = TimeNs::ms(3);
  ProbeTrain train(net.simulator(), st, spec, /*flow=*/9);
  st.on_flow(9, [&](const Packet& p) { train.on_packet_done(p); });
  train.start(TimeNs::ms(1));
  net.simulator().run_while_pending([&] { return train.complete(); });

  EXPECT_TRUE(train.complete());
  ASSERT_EQ(train.records().size(), 5u);
  for (int k = 0; k < 5; ++k) {
    const Packet& p = train.records()[static_cast<std::size_t>(k)];
    EXPECT_EQ(p.seq, k);
    EXPECT_EQ(p.enqueue_time, TimeNs::ms(1) + spec.gap * k);
    EXPECT_FALSE(p.dropped);
  }
  const auto deps = train.departures();
  for (std::size_t i = 1; i < deps.size(); ++i) {
    EXPECT_GT(deps[i], deps[i - 1]);
  }
  EXPECT_FALSE(train.any_dropped());
  EXPECT_EQ(train.access_delays_s().size(), 5u);
}

TEST(ProbeTrain, InputRateMatchesSpec) {
  TrainSpec spec;
  spec.n = 10;
  spec.size_bytes = 1500;
  spec.gap = TimeNs::us(1200);
  EXPECT_NEAR(spec.input_rate_bps() / 1e6, 10.0, 0.01);
}

TEST(ProbeTrain, RejectsDegenerateSpecs) {
  WlanNetwork net(PhyParams::dot11b_short(), 28);
  auto& st = net.add_station();
  TrainSpec spec;
  spec.n = 1;
  spec.gap = TimeNs::ms(1);
  EXPECT_THROW(ProbeTrain(net.simulator(), st, spec, 0),
               util::PreconditionError);
}

TEST(ProbeTrain, DeparturesRequireCompletion) {
  WlanNetwork net(PhyParams::dot11b_short(), 29);
  auto& st = net.add_station();
  TrainSpec spec;
  spec.n = 3;
  spec.gap = TimeNs::ms(1);
  ProbeTrain train(net.simulator(), st, spec, 0);
  EXPECT_THROW((void)train.departures(), util::PreconditionError);
  EXPECT_THROW((void)train.access_delays_s(), util::PreconditionError);
}

TEST(FlowMeter, CountsOnlyWindowedDeliveries) {
  FlowMeter meter(TimeNs::sec(1), TimeNs::sec(2));
  Packet p;
  p.size_bytes = 1000;
  p.depart_time = TimeNs::ms(500);  // before window
  meter.on_packet(p);
  p.depart_time = TimeNs::ms(1500);  // inside
  meter.on_packet(p);
  p.depart_time = TimeNs::sec(2);  // at end: exclusive
  meter.on_packet(p);
  p.dropped = true;
  p.depart_time = TimeNs::ms(1600);  // dropped: ignored
  meter.on_packet(p);

  EXPECT_EQ(meter.packets(), 1u);
  EXPECT_EQ(meter.payload_bits(), 8000);
  EXPECT_NEAR(meter.rate().to_bps(), 8000.0, 1e-9);
}

TEST(FlowMeter, RejectsEmptyWindow) {
  EXPECT_THROW(FlowMeter(TimeNs::sec(1), TimeNs::sec(1)),
               util::PreconditionError);
}

}  // namespace
}  // namespace csmabw::traffic
