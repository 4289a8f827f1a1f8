#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "mac/medium.hpp"
#include "mac/station.hpp"
#include "mac/wlan.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "topo/registry.hpp"
#include "topo/topology.hpp"
#include "trace/event.hpp"
#include "traffic/probe_train.hpp"
#include "util/hash.hpp"
#include "util/require.hpp"

namespace csmabw::mac {
namespace {

using topo::Topology;
using topo::TopologyPtr;

TopologyPtr shared(Topology t) {
  return std::make_shared<const Topology>(std::move(t));
}

Packet make_packet(int flow, int seq, int bytes = 1500) {
  Packet p;
  p.flow = flow;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

struct Sink {
  std::vector<Packet> delivered;
  std::vector<Packet> dropped;

  explicit Sink(DcfStation& st) {
    st.set_delivery_callback(
        [this](const Packet& p) { delivered.push_back(p); });
    st.set_drop_callback([this](const Packet& p) { dropped.push_back(p); });
  }
};

class VectorSink final : public trace::TraceSink {
 public:
  void on_event(const trace::TraceEvent& e) override { events.push_back(e); }
  std::vector<trace::TraceEvent> events;
};

/// A cell on `topology`, or on the complete graph when it is null.
std::unique_ptr<WlanNetwork> make_net(const PhyParams& phy,
                                      std::uint64_t seed,
                                      const TopologyPtr& topology) {
  return std::make_unique<WlanNetwork>(phy, seed, topology);
}

/// Nodes 0-2 form a clique; node 3 hears and disturbs nobody.  Not a
/// complete graph, so the medium keeps sparse bookkeeping, while
/// stations 0-2 share one collision domain as on clique:3.
TopologyPtr clique3_plus_isolated() {
  const Topology::Rows rows = {{1, 2}, {0, 2}, {0, 1}, {}};
  return shared(Topology("clique:3+isolated", rows, rows));
}

// ------------------------------------------------------- golden digests

/// FNV-1a over every field of every trace event, in emission order.
std::uint64_t trace_digest(const std::vector<trace::TraceEvent>& events) {
  util::Fnv1a64 h;
  h.add(static_cast<std::uint64_t>(events.size()));
  for (const trace::TraceEvent& e : events) {
    h.add(e.time.count())
        .add(static_cast<int>(e.kind))
        .add(static_cast<int>(e.station))
        .add(e.packet)
        .add(e.aux.count())
        .add(e.flow)
        .add(e.seq)
        .add(e.value);
  }
  return h.digest();
}

/// A fixed-seed saturated burst: every station enqueues `packets`
/// 1500-byte frames at t = 1 ms and the run drains them.
struct Burst {
  PhyParams phy = PhyParams::dot11b_short();
  std::uint64_t seed = 0;
  int stations = 0;
  int packets = 0;
  std::vector<double> rates_bps;  ///< per-station PHY rate overrides
};

struct BurstResult {
  std::uint64_t digest = 0;
  MediumStats medium;
  std::uint64_t dropped = 0;
};

BurstResult run_burst(const Burst& b, const TopologyPtr& topology) {
  auto net = make_net(b.phy, b.seed, topology);
  VectorSink sink;
  net->set_trace(&sink);
  for (int i = 0; i < b.stations; ++i) {
    DcfStation& st = net->add_station();
    if (static_cast<std::size_t>(i) < b.rates_bps.size()) {
      st.set_data_rate_bps(b.rates_bps[static_cast<std::size_t>(i)]);
    }
    net->simulator().schedule_at(TimeNs::ms(1), [&st, i, n = b.packets] {
      for (int k = 0; k < n; ++k) {
        st.enqueue(make_packet(i, k));
      }
    });
  }
  net->simulator().run_until(TimeNs::sec(2));
  BurstResult r;
  r.digest = trace_digest(sink.events);
  r.medium = net->medium().stats();
  for (int i = 0; i < b.stations; ++i) {
    EXPECT_EQ(net->station(i).queue_length(), 0u) << "station " << i;
    r.dropped += net->station(i).stats().dropped;
  }
  // A collision-free burst would pin down little.
  EXPECT_GT(r.medium.collisions, 0u);
  return r;
}

// The constants were recorded with the two media this one replaced:
// the clique bursts on the single-collision-domain medium, the others
// on the conflict-graph medium.  A complete graph gives the same trace
// whether it is implied (no topology) or spelled out.
constexpr std::uint64_t kCliqueDigest = 0x3fa15b0d3a532534ULL;
constexpr std::uint64_t kCliqueRtsDigest = 0x5b975292f9244fadULL;
constexpr std::uint64_t kUnequalAirtimeDigest = 0xe25798b76bc167a8ULL;
constexpr std::uint64_t kRetryLimitDigest = 0x4c87365559341c53ULL;
constexpr std::uint64_t kGrid3x3Digest = 0x0507b63e96c6aac2ULL;
constexpr std::uint64_t kPairsHiddenDigest = 0xcaa9cfcbf0aca8f0ULL;
constexpr std::uint64_t kRing6Digest = 0x4343617aeff51729ULL;

void expect_clique_digest(const Burst& b, std::uint64_t digest) {
  EXPECT_EQ(run_burst(b, nullptr).digest, digest) << "no topology";
  EXPECT_EQ(run_burst(b, shared(Topology::clique(b.stations))).digest, digest)
      << "clique topology";
}

TEST(MediumGolden, CliqueUniformFrames) {
  expect_clique_digest({PhyParams::dot11b_short(), 42, 3, 30, {}},
                       kCliqueDigest);
}

TEST(MediumGolden, CliqueRtsCts) {
  PhyParams phy = PhyParams::dot11b_short();
  phy.rts_threshold_bytes = 500;  // every 1500-byte frame goes RTS/CTS
  expect_clique_digest({phy, 7, 3, 30, {}}, kCliqueRtsDigest);
}

// The rate-anomaly shape: two 11 Mb/s stations and one at 2 Mb/s, so
// collisions pair frames of unequal airtime.
TEST(MediumGolden, CliqueUnequalAirtime) {
  expect_clique_digest(
      {PhyParams::dot11b_short(), 5, 3, 30, {11e6, 11e6, 2e6}},
      kUnequalAirtimeDigest);
}

TEST(MediumGolden, RetryLimitDrops) {
  PhyParams phy = PhyParams::dot11b_short();
  phy.cw_min = 1;
  phy.cw_max = 1;
  const Burst b{phy, 8, 2, 60, {}};
  expect_clique_digest(b, kRetryLimitDigest);
  EXPECT_GT(run_burst(b, nullptr).dropped, 0u);
}

TEST(MediumGolden, Grid3x3) {
  const BurstResult r = run_burst({PhyParams::dot11b_short(), 9, 9, 20, {}},
                                  shared(Topology::grid(3, 3)));
  EXPECT_EQ(r.digest, kGrid3x3Digest);
}

TEST(MediumGolden, PairsHidden2) {
  const BurstResult r = run_burst({PhyParams::dot11b_short(), 11, 2, 20, {}},
                                  shared(Topology::hidden_pairs(2)));
  EXPECT_EQ(r.digest, kPairsHiddenDigest);
}

TEST(MediumGolden, Ring6) {
  const BurstResult r = run_burst({PhyParams::dot11b_short(), 13, 6, 20, {}},
                                  shared(Topology::ring(6)));
  EXPECT_EQ(r.digest, kRing6Digest);
}

// --------------------------------------------------------- settled rules

/// The rules after an unequal-airtime collision, on both bookkeepings:
/// two stations fire at one instant with 1500-byte frames at 11 Mb/s
/// (short) and 2 Mb/s (long) while a third waits out the collision.
void expect_unequal_collision_rules(const TopologyPtr& topology) {
  const PhyParams phy = PhyParams::dot11b_short();
  auto net = make_net(phy, 31, topology);
  VectorSink sink;
  net->set_trace(&sink);
  DcfStation& fast = net->add_station();
  DcfStation& slow = net->add_station();
  DcfStation& bystander = net->add_station();
  while (topology && net->num_stations() < topology->num_nodes()) {
    net->add_station();
  }
  slow.set_data_rate_bps(2e6);

  // Both queues fill on an idle channel: DIFS-only access, one instant.
  const TimeNs t0 = TimeNs::ms(1);
  const TimeNs start = t0 + phy.difs();
  const TimeNs fast_end = start + phy.data_tx_time_at(1500, 11e6);
  const TimeNs slow_end = start + phy.data_tx_time_at(1500, 2e6);
  net->simulator().schedule_at(t0, [&] {
    fast.enqueue(make_packet(0, 0));
    slow.enqueue(make_packet(1, 0));
  });
  net->simulator().schedule_at(start + TimeNs::us(100),
                               [&] { bystander.enqueue(make_packet(2, 0)); });
  net->simulator().run_until(slow_end);

  const MediumStats& ms = net->medium().stats();
  EXPECT_EQ(ms.collisions, 1u);
  EXPECT_EQ(ms.collided_frames, 2u);
  EXPECT_EQ(ms.successes, 0u);
  // The union of on-air time: the short frame lies inside the long one.
  EXPECT_EQ(ms.busy_time, slow_end - start);

  // The short-frame transmitter retries from its own ACK timeout behind
  // DIFS; the channel clearing at slow_end does not turn it into a
  // bystander.  The bystander defers EIFS from the long frame's end.
  ASSERT_TRUE(fast.in_contention());
  EXPECT_EQ(fast.contend_from(), fast_end + phy.ack_timeout());
  EXPECT_EQ(fast.defer(), phy.difs());
  ASSERT_TRUE(slow.in_contention());
  EXPECT_EQ(slow.contend_from(), slow_end + phy.ack_timeout());
  EXPECT_EQ(slow.defer(), phy.difs());
  ASSERT_TRUE(bystander.in_contention());
  EXPECT_LE(bystander.contend_from(), slow_end);
  EXPECT_EQ(bystander.defer(), phy.eifs());

  // Each countdown runs from its origin; the earliest one is the next
  // attempt on the air.
  const std::vector<TimeNs> fire = {
      std::max(slow_end, fast_end + phy.ack_timeout()) + phy.difs() +
          phy.slot_time * fast.backoff_slots(),
      slow_end + phy.ack_timeout() + phy.difs() +
          phy.slot_time * slow.backoff_slots(),
      slow_end + phy.eifs() + phy.slot_time * bystander.backoff_slots()};
  const std::size_t events_before = sink.events.size();
  net->simulator().run_until(TimeNs::ms(100));
  const auto next = std::find_if(
      sink.events.begin() + static_cast<std::ptrdiff_t>(events_before),
      sink.events.end(), [](const trace::TraceEvent& e) {
        return e.kind == trace::EventKind::kTxAttempt;
      });
  ASSERT_NE(next, sink.events.end());
  EXPECT_EQ(next->time, *std::min_element(fire.begin(), fire.end()));
  const auto winner = static_cast<std::size_t>(next->station);
  ASSERT_LT(winner, fire.size());
  EXPECT_EQ(next->time, fire[winner]);
}

TEST(MediumRules, UnequalAirtimeCollisionOnTheCompleteGraph) {
  expect_unequal_collision_rules(nullptr);
  expect_unequal_collision_rules(shared(Topology::clique(3)));
}

TEST(MediumRules, UnequalAirtimeCollisionOnASparseGraph) {
  expect_unequal_collision_rules(clique3_plus_isolated());
}

// A run that stops mid-exchange has charged neither the success nor its
// airtime; both land when the exchange ends.
TEST(MediumRules, HorizonChargesNeitherSuccessNorBusyTime) {
  for (const TopologyPtr& topology : {TopologyPtr{}, clique3_plus_isolated()}) {
    const PhyParams phy = PhyParams::dot11b_short();
    auto net = make_net(phy, 3, topology);
    DcfStation& st = net->add_station();
    while (topology && net->num_stations() < topology->num_nodes()) {
      net->add_station();
    }
    const TimeNs start = TimeNs::ms(1) + phy.difs();
    const TimeNs end =
        start + phy.data_tx_time(1500) + phy.sifs + phy.ack_tx_time();
    net->simulator().schedule_at(TimeNs::ms(1),
                                 [&] { st.enqueue(make_packet(0, 0)); });
    net->simulator().run_until(start + TimeNs::us(500));
    EXPECT_EQ(net->medium().stats().successes, 0u);
    EXPECT_EQ(net->medium().stats().busy_time, TimeNs::zero());
    net->simulator().run_until(end);
    EXPECT_EQ(net->medium().stats().successes, 1u);
    EXPECT_EQ(net->medium().stats().busy_time, end - start);
  }
}

// ---------------------------------------------------- conflict graphs

// The hidden-terminal signature the sparse bookkeeping exists for: a
// station that cannot hear an ongoing transmission starts its own
// mid-frame — no deferral, no slot-boundary coincidence — and both
// frames are corrupted.  On a clique the second arrival would freeze
// behind carrier sense and neither frame would be lost.
TEST(MediumTopology, HiddenPairCollidesWithoutCarrierSenseDeferral) {
  const PhyParams phy = PhyParams::dot11b_short();
  WlanNetwork net(phy, 5, shared(Topology::hidden_pairs(2)));
  auto& a = net.add_station();
  auto& b = net.add_station();
  Sink sink_a(a);
  Sink sink_b(b);

  const TimeNs t_a = TimeNs::ms(1);
  // Well inside a's data frame (1500 bytes at 11 Mb/s is > 1 ms of air).
  const TimeNs t_b = t_a + TimeNs::us(500);
  net.simulator().schedule_at(t_a, [&] { a.enqueue(make_packet(0, 0)); });
  net.simulator().schedule_at(t_b, [&] { b.enqueue(make_packet(1, 0)); });
  net.simulator().run_until(TimeNs::ms(200));

  // b transmitted straight after DIFS as if the channel were idle —
  // the deferral a clique would have forced never happened.
  ASSERT_EQ(sink_b.delivered.size() + sink_b.dropped.size(), 1u);
  const Packet& pb = sink_b.delivered.empty() ? sink_b.dropped[0]
                                              : sink_b.delivered[0];
  EXPECT_EQ(pb.first_tx_time, t_b + phy.difs());
  // The temporal overlap corrupted both frames.
  EXPECT_GE(net.medium().stats().collisions, 1);
  ASSERT_EQ(sink_a.delivered.size() + sink_a.dropped.size(), 1u);
  const Packet& pa = sink_a.delivered.empty() ? sink_a.dropped[0]
                                              : sink_a.delivered[0];
  EXPECT_GE(pa.retries + pb.retries, 2);
}

// The exposed-terminal dividend: out-of-range corners of a 3x3 grid
// reuse the channel concurrently, with zero collisions.
TEST(MediumTopology, GridCornersReuseTheChannelConcurrently) {
  const PhyParams phy = PhyParams::dot11b_short();
  WlanNetwork net(phy, 9, shared(Topology::grid(3, 3)));
  std::vector<DcfStation*> stations;
  for (int i = 0; i < 9; ++i) {
    stations.push_back(&net.add_station());
  }
  Sink sink0(*stations[0]);
  Sink sink8(*stations[8]);
  net.simulator().schedule_at(TimeNs::ms(1), [&] {
    stations[0]->enqueue(make_packet(0, 0));
    stations[8]->enqueue(make_packet(8, 0));
  });
  net.simulator().run_until(TimeNs::ms(50));

  ASSERT_EQ(sink0.delivered.size(), 1u);
  ASSERT_EQ(sink8.delivered.size(), 1u);
  EXPECT_EQ(net.medium().stats().collisions, 0);
  // Both fired at the same instant: fully overlapping airtime, which
  // the union counts once.
  EXPECT_EQ(sink0.delivered[0].first_tx_time, TimeNs::ms(1) + phy.difs());
  EXPECT_EQ(sink8.delivered[0].first_tx_time, TimeNs::ms(1) + phy.difs());
  EXPECT_EQ(sink0.delivered[0].retries, 0);
  EXPECT_EQ(sink8.delivered[0].retries, 0);
  EXPECT_EQ(net.medium().stats().busy_time,
            phy.data_tx_time(1500) + phy.sifs + phy.ack_tx_time());
}

TEST(MediumTopology, HiddenPairRunsAreDeterministic) {
  const auto run_once = [] {
    WlanNetwork net(PhyParams::dot11b_short(), 11,
                    shared(Topology::hidden_pairs(2)));
    VectorSink sink;
    net.set_trace(&sink);
    auto& a = net.add_station();
    auto& b = net.add_station();
    net.simulator().schedule_at(TimeNs::ms(1), [&] {
      for (int k = 0; k < 10; ++k) {
        a.enqueue(make_packet(0, k));
        b.enqueue(make_packet(1, k));
      }
    });
    net.simulator().run_until(TimeNs::ms(500));
    return sink.events;
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_TRUE(first == second);
}

// The hot-path counters: bound handles count contention updates,
// neighborhood sweeps and fire re-arms; unbound handles (the default)
// change nothing about the run.
TEST(MediumTopology, MetricsCountHotPathWorkWithoutPerturbing) {
  const auto run_once = [](obs::Registry* reg) {
    WlanNetwork net(PhyParams::dot11b_short(), 11,
                    shared(Topology::grid(3, 3)));
    net.set_metrics(reg);
    VectorSink sink;
    net.set_trace(&sink);
    std::vector<DcfStation*> stations;
    for (int i = 0; i < 9; ++i) {
      stations.push_back(&net.add_station());
    }
    net.simulator().schedule_at(TimeNs::ms(1), [&stations] {
      for (int i = 0; i < 9; ++i) {
        for (int k = 0; k < 5; ++k) {
          stations[static_cast<std::size_t>(i)]->enqueue(make_packet(i, k));
        }
      }
    });
    net.simulator().run_until(TimeNs::sec(2));
    return sink.events;
  };

  obs::Registry reg(/*enabled=*/true);
  const auto instrumented = run_once(&reg);
  const auto plain = run_once(nullptr);
  // Observational only: the instrumented run is bit-identical.
  ASSERT_EQ(instrumented.size(), plain.size());
  EXPECT_TRUE(instrumented == plain);

  EXPECT_GT(reg.value("topo.medium.updates"), 0);
  EXPECT_GT(reg.value("topo.medium.neighborhood_sweeps"), 0);
  EXPECT_GT(reg.value("topo.medium.fire_rearms"), 0);
  // Sweeps track medium activity (one per winner pass / ended tx), never
  // the station count per event — a 9-station burst stays in the hundreds.
  EXPECT_LT(reg.value("topo.medium.neighborhood_sweeps"), 100000);
}

// The counters surface through the standard run-report path — the
// `--metrics-out` JSON a campaign writes names every topo.medium.*
// metric.
TEST(MediumTopology, MetricsAppearInRunReport) {
  core::ScenarioConfig cfg;
  cfg.seed = 23;
  cfg.topology = "pairs-hidden:3";
  cfg.contenders = {core::StationSpec::poisson(BitRate::mbps(1.0), 1500),
                    core::StationSpec::poisson(BitRate::mbps(1.0), 1500)};
  const core::Scenario scenario(cfg);
  traffic::TrainSpec train;
  train.n = 10;
  train.size_bytes = 1500;
  train.gap = BitRate::mbps(5.0).gap_for(1500);

  obs::Registry reg(/*enabled=*/true);
  const core::TrainRun run =
      scenario.run_train(train, 0, false, nullptr, &reg);
  EXPECT_FALSE(run.packets.empty());

  std::ostringstream out;
  obs::write_run_report(out, reg, {}, obs::RunReportOptions{});
  const std::string report = out.str();
  for (const char* name :
       {"topo.medium.updates", "topo.medium.neighborhood_sweeps",
        "topo.medium.fire_rearms"}) {
    EXPECT_NE(report.find(name), std::string::npos) << name;
  }
}

TEST(MediumTopology, RegistrationIsCappedAtTheNodeCount) {
  WlanNetwork net(PhyParams::dot11b_short(), 1,
                  shared(Topology::hidden_pairs(2)));
  net.add_station();
  net.add_station();
  EXPECT_THROW(net.add_station(), util::PreconditionError);
}

// ScenarioCell hands the medium the cell's graph and nothing else: the
// complete graphs (the default cell, clique:3 and ring:3, whose three
// nodes are all mutual neighbors) do no sparse-path work, any other
// graph does.
TEST(ScenarioCellTopology, CliqueRoutesToLegacyMedium) {
  core::ScenarioConfig cfg;
  cfg.contenders = {core::StationSpec::poisson(BitRate::mbps(2.0), 1500),
                    core::StationSpec::poisson(BitRate::mbps(2.0), 1500)};
  cfg.seed = 3;
  const auto counters = [&cfg](const std::string& topology) {
    cfg.topology = topology;
    obs::Registry reg(/*enabled=*/true);
    core::ScenarioCell cell(cfg, 0);
    cell.set_metrics(&reg);
    cell.simulator().run_until(TimeNs::ms(300));
    EXPECT_GT(cell.net().medium().stats().successes, 0u) << topology;
    return std::vector<std::int64_t>{
        reg.value("topo.medium.updates"),
        reg.value("topo.medium.neighborhood_sweeps"),
        reg.value("topo.medium.fire_rearms")};
  };
  const std::vector<std::int64_t> none = {0, 0, 0};
  EXPECT_EQ(counters(topo::kDefaultTopology), none);
  EXPECT_EQ(counters("clique:3"), none);
  EXPECT_EQ(counters("ring:3"), none);
  for (std::int64_t v : counters("pairs-hidden:3")) {
    EXPECT_GT(v, 0);
  }
  cfg.topology = "grid:3x3";  // 9 nodes vs 3 stations
  EXPECT_THROW(core::ScenarioCell cell(cfg, 0), util::PreconditionError);
}

// End-to-end through core::Scenario: a hidden-terminal cell inflates
// the probe's access delays relative to the identical clique cell.
TEST(ScenarioCellTopology, HiddenTerminalsInflateProbeDelay) {
  const core::ScenarioSpec clique = core::ScenarioSpec::parse(
      "phy=dot11b_short;contenders=1x poisson:rate=2M");
  core::ScenarioSpec hidden = clique;
  hidden.topology = "pairs-hidden:2";

  traffic::TrainSpec train;
  train.n = 40;
  train.size_bytes = 1500;
  train.gap = BitRate::mbps(5.0).gap_for(1500);

  const auto mean_delay = [&](const core::ScenarioSpec& spec) {
    const core::Scenario scenario(spec.to_config(/*seed=*/17));
    double total = 0.0;
    int packets = 0;
    for (std::uint64_t rep = 0; rep < 6; ++rep) {
      const core::TrainRun run = scenario.run_train(train, rep);
      for (const auto& p : run.packets) {
        if (!p.dropped) {
          total += p.access_delay_s();
          ++packets;
        }
      }
    }
    EXPECT_GT(packets, 0);
    return total / packets;
  };

  const double clique_delay = mean_delay(clique);
  const double hidden_delay = mean_delay(hidden);
  // Hidden contention turns every temporal overlap into a retransmission:
  // the mean access delay must rise well beyond noise.
  EXPECT_GT(hidden_delay, clique_delay * 1.5);
}

}  // namespace
}  // namespace csmabw::mac
