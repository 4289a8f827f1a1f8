// Tests of the MAC extensions beyond the paper's baseline configuration:
// RTS/CTS (the paper disabled it; we model it as an ablatable option) and
// per-station PHY rates (the 802.11 rate anomaly).
#include <gtest/gtest.h>

#include "mac/wlan.hpp"
#include "traffic/flow_meter.hpp"
#include "traffic/source.hpp"
#include "util/require.hpp"

namespace csmabw::mac {
namespace {

Packet make_packet(int flow, int seq, int bytes = 1500) {
  Packet p;
  p.flow = flow;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

struct Sink {
  std::vector<Packet> delivered;

  Sink(DcfStation& st, int flow) {
    st.on_flow(flow, [this](const Packet& p) {
      if (!p.dropped) {
        delivered.push_back(p);
      }
    });
  }
};

TEST(RtsCts, ControlFrameTimings) {
  const PhyParams p = PhyParams::dot11b_short();
  // 20 B RTS / 14 B CTS at 2 Mb/s + 96 us PLCP.
  EXPECT_EQ(p.rts_tx_time(), TimeNs::us(96 + 80));
  EXPECT_EQ(p.cts_tx_time(), TimeNs::us(96 + 56));
  EXPECT_EQ(p.cts_timeout(), p.sifs + p.cts_tx_time() + p.slot_time);
}

TEST(RtsCts, ThresholdSelectsExchange) {
  PhyParams p = PhyParams::dot11b_short();
  EXPECT_FALSE(p.uses_rts(1500));  // disabled by default (paper setting)
  p.rts_threshold_bytes = 500;
  EXPECT_TRUE(p.uses_rts(1500));
  EXPECT_FALSE(p.uses_rts(500));
  EXPECT_FALSE(p.uses_rts(100));
}

TEST(RtsCts, SuccessfulExchangeTiming) {
  PhyParams phy = PhyParams::dot11b_short();
  phy.rts_threshold_bytes = 0;  // RTS for everything
  WlanNetwork net(phy, 41);
  auto& st = net.add_station();
  Sink sink(st, 0);
  net.simulator().schedule_at(TimeNs::ms(1),
                              [&] { st.enqueue(make_packet(0, 0)); });
  net.simulator().run_until(TimeNs::ms(20));

  ASSERT_EQ(sink.delivered.size(), 1u);
  const Packet& p = sink.delivered[0];
  // DIFS, then RTS + SIFS + CTS + SIFS + DATA.
  const TimeNs expected_depart = TimeNs::ms(1) + phy.difs() +
                                 phy.rts_tx_time() + phy.sifs +
                                 phy.cts_tx_time() + phy.sifs +
                                 phy.data_tx_time(1500);
  EXPECT_EQ(p.depart_time, expected_depart);
  // The channel stays busy through the ACK.
  EXPECT_EQ(net.medium().stats().busy_time,
            expected_depart - p.first_tx_time + phy.sifs + phy.ack_tx_time());
}

TEST(RtsCts, CollisionsCostOnlyRtsAirtime) {
  // Two saturated stations: with RTS/CTS each collision burns ~an RTS
  // instead of a full 1500-byte frame, so the medium wastes less time.
  auto busy_waste = [](bool rts) {
    PhyParams phy = PhyParams::dot11b_short();
    phy.rts_threshold_bytes = rts ? 0 : -1;
    WlanNetwork net(phy, 42);
    auto& a = net.add_station();
    auto& b = net.add_station();
    traffic::CbrSource sa(net.simulator(), a, 0, 1500,
                          BitRate::mbps(20).gap_for(1500));
    traffic::CbrSource sb(net.simulator(), b, 1, 1500,
                          BitRate::mbps(20).gap_for(1500));
    sa.start(TimeNs::zero());
    sb.start(TimeNs::zero());
    net.simulator().run_until(TimeNs::sec(4));
    // Channel time not spent on successful exchanges, per collision.
    const auto& ms = net.medium().stats();
    EXPECT_GT(ms.collisions, 0u);
    const double success_time =
        static_cast<double>(ms.successes) *
        (phy.data_tx_time(1500) + phy.sifs + phy.ack_tx_time() +
         (rts ? phy.rts_tx_time() + phy.cts_tx_time() + 2 * phy.sifs
              : TimeNs::zero()))
            .to_seconds();
    return (ms.busy_time.to_seconds() - success_time) /
           static_cast<double>(ms.collisions);
  };
  const PhyParams phy = PhyParams::dot11b_short();
  EXPECT_NEAR(busy_waste(true), phy.rts_tx_time().to_seconds(), 1e-5);
  EXPECT_NEAR(busy_waste(false), phy.data_tx_time(1500).to_seconds(), 1e-5);
}

TEST(RtsCts, MixedThresholdTraffic) {
  // Small frames skip the exchange even when large ones use it.
  PhyParams phy = PhyParams::dot11b_short();
  phy.rts_threshold_bytes = 500;
  WlanNetwork net(phy, 43);
  auto& st = net.add_station();
  Sink sink(st, 0);
  net.simulator().schedule_at(TimeNs::ms(1), [&] {
    st.enqueue(make_packet(0, 0, 100));  // no RTS
  });
  net.simulator().run_until(TimeNs::ms(20));
  ASSERT_EQ(sink.delivered.size(), 1u);
  EXPECT_EQ(sink.delivered[0].depart_time,
            TimeNs::ms(1) + phy.difs() + phy.data_tx_time(100));
}

TEST(RateAnomaly, SlowStationDragsFastOne) {
  // Heusse et al.'s 802.11 anomaly: a saturated 2 Mb/s station gives a
  // saturated 11 Mb/s station roughly equal *packet* throughput, far
  // below what the fast station would get alone.
  const PhyParams phy = PhyParams::dot11b_short();
  WlanNetwork net(phy, 44);
  auto& fast = net.add_station();
  auto& slow = net.add_station();
  slow.set_data_rate_bps(2e6);
  EXPECT_DOUBLE_EQ(fast.data_rate_bps(), 11e6);
  EXPECT_DOUBLE_EQ(slow.data_rate_bps(), 2e6);

  traffic::CbrSource sf(net.simulator(), fast, 0, 1500,
                        BitRate::mbps(20).gap_for(1500));
  traffic::CbrSource ss(net.simulator(), slow, 1, 1500,
                        BitRate::mbps(20).gap_for(1500));
  sf.start(TimeNs::zero());
  ss.start(TimeNs::zero());
  traffic::FlowMeter mf(TimeNs::sec(1), TimeNs::sec(9));
  traffic::FlowMeter m_slow(TimeNs::sec(1), TimeNs::sec(9));
  fast.on_flow(0, [&](const Packet& p) { mf.on_packet(p); });
  slow.on_flow(1, [&](const Packet& p) { m_slow.on_packet(p); });
  net.simulator().run_until(TimeNs::sec(9));

  const double fast_mbps = mf.rate().to_mbps();
  const double slow_mbps = m_slow.rate().to_mbps();
  // DCF gives equal transmission opportunities: near-equal bit rates for
  // equal packet sizes.
  EXPECT_NEAR(fast_mbps / (fast_mbps + slow_mbps), 0.5, 0.06);
  // The fast station is dragged far below its solo saturation rate.
  EXPECT_LT(fast_mbps, 0.35 * phy.saturation_rate(1500).to_mbps());
}

TEST(RateAnomaly, SlowFrameAirtimeUsed) {
  const PhyParams phy = PhyParams::dot11b_short();
  WlanNetwork net(phy, 45);
  auto& st = net.add_station();
  st.set_data_rate_bps(1e6);
  Sink sink(st, 0);
  net.simulator().schedule_at(TimeNs::ms(1),
                              [&] { st.enqueue(make_packet(0, 0)); });
  net.simulator().run_until(TimeNs::ms(40));
  ASSERT_EQ(sink.delivered.size(), 1u);
  EXPECT_EQ(sink.delivered[0].depart_time,
            TimeNs::ms(1) + phy.difs() + phy.data_tx_time_at(1500, 1e6));
}

TEST(RateAnomaly, RejectsNonPositiveRate) {
  WlanNetwork net(PhyParams::dot11b_short(), 46);
  auto& st = net.add_station();
  EXPECT_THROW(st.set_data_rate_bps(0.0), util::PreconditionError);
}

}  // namespace
}  // namespace csmabw::mac
