#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "mac/bianchi.hpp"
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

/// Collects every finished packet of one flow on a station.
struct Sink {
  std::vector<Packet> delivered;
  std::vector<Packet> dropped;

  Sink(DcfStation& st, int flow) {
    st.on_flow(flow, [this](const Packet& p) {
      (p.dropped ? dropped : delivered).push_back(p);
    });
  }
};

TEST(Dcf, LonePacketGetsImmediateAccessAfterDifs) {
  WlanNetwork net(PhyParams::dot11b_short(), 1);
  auto& st = net.add_station();
  Sink sink(st, 0);
  net.simulator().schedule_at(TimeNs::ms(1),
                              [&] { st.enqueue(make_packet(0, 0)); });
  net.simulator().run_until(TimeNs::ms(10));

  ASSERT_EQ(sink.delivered.size(), 1u);
  const Packet& p = sink.delivered[0];
  const PhyParams phy = PhyParams::dot11b_short();
  // Idle medium: DIFS deference, zero backoff, then the data frame.
  EXPECT_EQ(p.first_tx_time, TimeNs::ms(1) + phy.difs());
  EXPECT_EQ(p.depart_time, p.first_tx_time + phy.data_tx_time(1500));
  EXPECT_EQ(p.head_time, TimeNs::ms(1));
  EXPECT_EQ(p.retries, 0);
}

TEST(Dcf, ImmediateAccessAblationAddsBackoff) {
  PhyParams phy = PhyParams::dot11b_short();
  phy.immediate_access = false;
  WlanNetwork net(phy, 1);
  auto& st = net.add_station();
  Sink sink(st, 0);
  net.simulator().schedule_at(TimeNs::ms(1),
                              [&] { st.enqueue(make_packet(0, 0)); });
  net.simulator().run_until(TimeNs::ms(10));

  ASSERT_EQ(sink.delivered.size(), 1u);
  const Packet& p = sink.delivered[0];
  const TimeNs backoff = p.first_tx_time - TimeNs::ms(1) - phy.difs();
  // A random backoff of 0..CWmin slots was inserted.
  EXPECT_GE(backoff, TimeNs::zero());
  EXPECT_LE(backoff, phy.slot_time * phy.cw_min);
  EXPECT_EQ(backoff % phy.slot_time, TimeNs::zero());
}

TEST(Dcf, SecondQueuedPacketWaitsForAckAndBackoff) {
  const PhyParams phy = PhyParams::dot11b_short();
  WlanNetwork net(phy, 2);
  auto& st = net.add_station();
  Sink sink(st, 0);
  net.simulator().schedule_at(TimeNs::ms(1), [&] {
    st.enqueue(make_packet(0, 0));
    st.enqueue(make_packet(0, 1));
  });
  net.simulator().run_until(TimeNs::ms(50));

  ASSERT_EQ(sink.delivered.size(), 2u);
  const Packet& p0 = sink.delivered[0];
  const Packet& p1 = sink.delivered[1];
  // The second packet reaches the head when the first's data ends.
  EXPECT_EQ(p1.head_time, p0.depart_time);
  // It cannot start before the ACK exchange + DIFS complete.
  const TimeNs ack_end = p0.depart_time + phy.sifs + phy.ack_tx_time();
  EXPECT_GE(p1.first_tx_time, ack_end + phy.difs());
  // And it must start on a whole slot boundary after that.
  EXPECT_EQ((p1.first_tx_time - ack_end - phy.difs()) % phy.slot_time,
            TimeNs::zero());
}

TEST(Dcf, AccessDelayIsHeadToDepart) {
  WlanNetwork net(PhyParams::dot11b_short(), 3);
  auto& st = net.add_station();
  Sink sink(st, 0);
  net.simulator().schedule_at(TimeNs::ms(1),
                              [&] { st.enqueue(make_packet(0, 0)); });
  net.simulator().run_until(TimeNs::ms(10));
  ASSERT_EQ(sink.delivered.size(), 1u);
  const Packet& p = sink.delivered[0];
  EXPECT_DOUBLE_EQ(p.access_delay_s(),
                   (p.depart_time - p.head_time).to_seconds());
  EXPECT_DOUBLE_EQ(p.sojourn_s(),
                   (p.depart_time - p.enqueue_time).to_seconds());
}

TEST(Dcf, SingleSaturatedStationMatchesAnalyticRate) {
  const PhyParams phy = PhyParams::dot11b_short();
  WlanNetwork net(phy, 4);
  auto& st = net.add_station();
  traffic::CbrSource src(net.simulator(), st, 0, 1500,
                         BitRate::mbps(20).gap_for(1500));
  src.start(TimeNs::zero());
  traffic::FlowMeter meter(TimeNs::sec(1), TimeNs::sec(5));
  st.on_flow(0, [&](const Packet& p) { meter.on_packet(p); });
  net.simulator().run_until(TimeNs::sec(5));

  EXPECT_NEAR(meter.rate().to_mbps(), phy.saturation_rate(1500).to_mbps(),
              0.10);
}

TEST(Dcf, TwoSaturatedStationsShareFairly) {
  const PhyParams phy = PhyParams::dot11b_short();
  WlanNetwork net(phy, 5);
  auto& a = net.add_station();
  auto& b = net.add_station();
  traffic::CbrSource sa(net.simulator(), a, 0, 1500,
                        BitRate::mbps(20).gap_for(1500));
  traffic::CbrSource sb(net.simulator(), b, 1, 1500,
                        BitRate::mbps(20).gap_for(1500));
  sa.start(TimeNs::zero());
  sb.start(TimeNs::zero());
  traffic::FlowMeter ma(TimeNs::sec(1), TimeNs::sec(11));
  traffic::FlowMeter mb(TimeNs::sec(1), TimeNs::sec(11));
  a.on_flow(0, [&](const Packet& p) { ma.on_packet(p); });
  b.on_flow(1, [&](const Packet& p) { mb.on_packet(p); });
  net.simulator().run_until(TimeNs::sec(11));

  const double ra = ma.rate().to_mbps();
  const double rb = mb.rate().to_mbps();
  EXPECT_NEAR(ra / (ra + rb), 0.5, 0.05);  // long-run fairness

  const BianchiResult bi = bianchi_saturation(phy, 2, 1500);
  EXPECT_NEAR(ra + rb, bi.aggregate.to_mbps(),
              0.10 * bi.aggregate.to_mbps());
}

TEST(Dcf, SaturatedContentionProducesCollisions) {
  WlanNetwork net(PhyParams::dot11b_short(), 6);
  auto& a = net.add_station();
  auto& b = net.add_station();
  traffic::CbrSource sa(net.simulator(), a, 0, 1500,
                        BitRate::mbps(20).gap_for(1500));
  traffic::CbrSource sb(net.simulator(), b, 1, 1500,
                        BitRate::mbps(20).gap_for(1500));
  sa.start(TimeNs::zero());
  sb.start(TimeNs::zero());
  net.simulator().run_until(TimeNs::sec(3));

  EXPECT_GT(net.medium().stats().collisions, 0u);
  EXPECT_GE(net.medium().stats().collided_frames,
            2 * net.medium().stats().collisions);
  // Retries show up as attempts > deliveries.
  EXPECT_GT(a.stats().attempts + b.stats().attempts,
            a.stats().delivered + b.stats().delivered);
}

TEST(Dcf, PacketConservation) {
  WlanNetwork net(PhyParams::dot11b_short(), 7);
  auto& a = net.add_station();
  auto& b = net.add_station();
  traffic::PoissonSource sa(net.simulator(), a, 0, 1000, BitRate::mbps(3),
                            net.rng("pa"));
  traffic::PoissonSource sb(net.simulator(), b, 1, 1000, BitRate::mbps(3),
                            net.rng("pb"));
  sa.start(TimeNs::zero());
  sb.start(TimeNs::zero());
  net.simulator().run_until(TimeNs::sec(3));

  for (DcfStation* st : {&a, &b}) {
    EXPECT_EQ(st->stats().enqueued,
              st->stats().delivered + st->stats().dropped +
                  st->queue_length());
  }
}

TEST(Dcf, RetryLimitDropsFrameAndContinues) {
  // CWmin = CWmax = 1 gives persistent 50% collisions between two
  // saturated stations, so the 7-retry limit trips quickly.
  PhyParams phy = PhyParams::dot11b_short();
  phy.cw_min = 1;
  phy.cw_max = 1;
  WlanNetwork net(phy, 8);
  auto& a = net.add_station();
  auto& b = net.add_station();
  traffic::CbrSource sa(net.simulator(), a, 0, 1500,
                        BitRate::mbps(20).gap_for(1500));
  traffic::CbrSource sb(net.simulator(), b, 1, 1500,
                        BitRate::mbps(20).gap_for(1500));
  sa.start(TimeNs::zero());
  sb.start(TimeNs::zero());
  Sink sink_a(a, 0);
  net.simulator().run_until(TimeNs::sec(5));

  EXPECT_GT(a.stats().dropped + b.stats().dropped, 0u);
  for (const Packet& p : sink_a.dropped) {
    EXPECT_TRUE(p.dropped);
    EXPECT_EQ(p.retries, phy.retry_limit + 1);
  }
  // The stations keep delivering after drops.
  EXPECT_GT(a.stats().delivered, 0u);
  EXPECT_GT(b.stats().delivered, 0u);
}

TEST(DcfStation, RoutesFinishedPacketsToTheirFlowsHandlersInOrder) {
  // Retry limit 0: the first collision drops the frame.
  PhyParams phy = PhyParams::dot11b_short();
  phy.retry_limit = 0;
  WlanNetwork net(phy, 30);
  auto& st = net.add_station();
  auto& rival = net.add_station();
  using Call = std::tuple<char, int, bool>;  // (handler, flow, dropped)
  std::vector<Call> calls;
  const auto logger = [&calls](char handler) {
    return [&calls, handler](const Packet& p) {
      calls.emplace_back(handler, p.flow, p.dropped);
    };
  };
  st.on_flow(1, logger('a'));
  st.on_flow(2, logger('c'));
  st.on_flow(1, logger('b'));  // adds a second handler to flow 1

  // Alone on the medium, one packet each of flows 1, 2 and 3 (which has
  // no handler) is delivered.
  net.simulator().schedule_at(TimeNs::ms(1), [&] {
    for (int flow : {1, 2, 3}) {
      st.enqueue(make_packet(flow, 0, 500));
    }
  });
  net.simulator().run_until(TimeNs::ms(100));
  ASSERT_EQ(st.stats().delivered, 3u);
  EXPECT_EQ(calls,
            (std::vector<Call>{{'a', 1, false}, {'b', 1, false},
                               {'c', 2, false}}));

  // Both stations seize the idle medium at once and collide: the frame
  // of flow 1 is dropped and still reaches both of flow 1's handlers.
  calls.clear();
  net.simulator().schedule_at(TimeNs::ms(200), [&] {
    st.enqueue(make_packet(1, 1));
    rival.enqueue(make_packet(1, 0));
  });
  net.simulator().run_until(TimeNs::ms(300));
  ASSERT_EQ(st.stats().dropped, 1u);
  EXPECT_EQ(rival.stats().dropped, 1u);
  EXPECT_EQ(calls, (std::vector<Call>{{'a', 1, true}, {'b', 1, true}}));
}

TEST(Dcf, BusyMediumArrivalDrawsBackoff) {
  // A packet arriving at station B while A transmits must not collide
  // with certainty: it freezes until the medium clears, then backs off.
  const PhyParams phy = PhyParams::dot11b_short();
  WlanNetwork net(phy, 9);
  auto& a = net.add_station();
  auto& b = net.add_station();
  Sink sink_a(a, 0);
  Sink sink_b(b, 1);
  net.simulator().schedule_at(TimeNs::ms(1),
                              [&] { a.enqueue(make_packet(0, 0)); });
  // Arrives mid-transmission of A's frame.
  net.simulator().schedule_at(TimeNs::ms(1) + phy.difs() + TimeNs::us(200),
                              [&] { b.enqueue(make_packet(1, 0)); });
  net.simulator().run_until(TimeNs::ms(50));

  ASSERT_EQ(sink_a.delivered.size(), 1u);
  ASSERT_EQ(sink_b.delivered.size(), 1u);
  const TimeNs a_ack_end = sink_a.delivered[0].depart_time + phy.sifs +
                           phy.ack_tx_time();
  // B waits for A's exchange plus DIFS before its own attempt.
  EXPECT_GE(sink_b.delivered[0].first_tx_time, a_ack_end + phy.difs());
  EXPECT_EQ(net.medium().stats().collisions, 0u);
}

TEST(Dcf, QueueGrowsWhenOverloaded) {
  WlanNetwork net(PhyParams::dot11b_short(), 10);
  auto& st = net.add_station();
  traffic::CbrSource src(net.simulator(), st, 0, 1500,
                         BitRate::mbps(14).gap_for(1500));  // ~2x capacity
  src.start(TimeNs::zero());
  net.simulator().run_until(TimeNs::sec(2));
  // Offered ~14 Mb/s vs ~6.9 Mb/s service: the backlog must build.
  EXPECT_GT(st.queue_length(), 100u);
}

TEST(Dcf, HeadFrameBytesRequiresFrame) {
  WlanNetwork net(PhyParams::dot11b_short(), 11);
  auto& st = net.add_station();
  EXPECT_THROW((void)st.head_frame_bytes(), util::PreconditionError);
}

TEST(Dcf, EnqueueRejectsEmptyPacket) {
  WlanNetwork net(PhyParams::dot11b_short(), 12);
  auto& st = net.add_station();
  Packet p;  // size_bytes == 0
  EXPECT_THROW(st.enqueue(p), util::PreconditionError);
}

TEST(Dcf, MediumBusyTimeAccumulates) {
  WlanNetwork net(PhyParams::dot11b_short(), 13);
  auto& st = net.add_station();
  Sink sink(st, 0);
  net.simulator().schedule_at(TimeNs::ms(1),
                              [&] { st.enqueue(make_packet(0, 0)); });
  net.simulator().run_until(TimeNs::ms(10));
  const PhyParams phy = PhyParams::dot11b_short();
  EXPECT_EQ(net.medium().stats().busy_time,
            phy.data_tx_time(1500) + phy.sifs + phy.ack_tx_time());
  EXPECT_EQ(net.medium().stats().successes, 1u);
}

TEST(Dcf, PostBackoffDelaysBackToBackArrivals) {
  // With post-backoff (standard), a packet arriving just after a
  // transmission rides the post-backoff countdown; with the ablation it
  // gets DIFS-only access.  Compare the second packet's access delay.
  auto run = [](bool post_backoff, std::uint64_t seed) {
    PhyParams phy = PhyParams::dot11b_short();
    phy.post_backoff = post_backoff;
    WlanNetwork net(phy, seed);
    auto& st = net.add_station();
    Sink sink(st, 0);
    net.simulator().schedule_at(TimeNs::ms(1),
                                [&] { st.enqueue(make_packet(0, 0)); });
    // Arrives shortly after the first exchange finishes (~1.6 ms), while
    // post-backoff is still counting.
    net.simulator().schedule_at(TimeNs::ms(2),
                                [&] { st.enqueue(make_packet(0, 1)); });
    net.simulator().run_until(TimeNs::ms(50));
    return sink;
  };

  double with_sum = 0.0;
  double without_sum = 0.0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    with_sum += run(true, seed).delivered[1].access_delay_s();
    without_sum += run(false, seed).delivered[1].access_delay_s();
  }
  EXPECT_GE(with_sum, without_sum);
}

TEST(Wlan, StationsAreStableAndIndexed) {
  WlanNetwork net(PhyParams::dot11b_short(), 14);
  auto& a = net.add_station();
  auto& b = net.add_station();
  EXPECT_EQ(a.id(), 0);
  EXPECT_EQ(b.id(), 1);
  EXPECT_EQ(net.num_stations(), 2);
  EXPECT_EQ(&net.station(0), &a);
  EXPECT_EQ(&net.station(1), &b);
}

TEST(Wlan, NamedRngsReproducible) {
  WlanNetwork n1(PhyParams::dot11b_short(), 77);
  WlanNetwork n2(PhyParams::dot11b_short(), 77);
  auto r1 = n1.rng("x");
  auto r2 = n2.rng("x");
  EXPECT_DOUBLE_EQ(r1.uniform01(), r2.uniform01());
}

}  // namespace
}  // namespace csmabw::mac
