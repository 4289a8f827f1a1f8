#include "traffic/model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/scenario.hpp"
#include "mac/bianchi.hpp"
#include "mac/wlan.hpp"
#include "util/require.hpp"

namespace csmabw::traffic {
namespace {

using mac::PhyParams;
using mac::WlanNetwork;

TrafficModelRegistry& reg() { return TrafficModelRegistry::global(); }

TEST(TrafficModelRegistry, BuiltinsRegisteredSorted) {
  const std::vector<std::string> names = reg().names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "cbr");
  EXPECT_EQ(names[1], "onoff");
  EXPECT_EQ(names[2], "poisson");
  EXPECT_EQ(names[3], "saturated");
  for (const auto& name : names) {
    EXPECT_TRUE(reg().contains(name));
    EXPECT_FALSE(reg().help(name).empty());
  }
}

TEST(TrafficModelRegistry, CanonicalDescribeRoundTrips) {
  // canonical() is idempotent: reparsing a canonical spec reproduces it.
  for (const char* spec :
       {"poisson:rate=6M", "poisson:rate=2.5M,size=1000", "cbr:rate=500k",
        "onoff:rate=6M,duty=0.3,burst=50ms", "saturated",
        "saturated:size=200", "saturated:backlog=4"}) {
    const std::string canonical = reg().canonical(spec);
    EXPECT_EQ(reg().canonical(canonical), canonical) << spec;
  }
  // Defaults are filled in and spelled out.
  EXPECT_EQ(reg().canonical("onoff:rate=6M"),
            "onoff:rate=6M,duty=0.5,burst=50ms");
  // Rates canonicalize to the suffixed spelling.
  EXPECT_EQ(reg().canonical("poisson:rate=2000000"), "poisson:rate=2M");
  EXPECT_EQ(reg().canonical("cbr:rate=1500"), "cbr:rate=1.5k");
}

TEST(TrafficModelRegistry, RejectsBadSpecs) {
  EXPECT_THROW((void)reg().create("warp:rate=1M"), util::PreconditionError);
  EXPECT_THROW((void)reg().create("poisson"), util::PreconditionError);
  EXPECT_THROW((void)reg().create("poisson:rate=-1M"),
               util::PreconditionError);
  EXPECT_THROW((void)reg().create("poisson:rate=1Q"),
               util::PreconditionError);
  EXPECT_THROW((void)reg().create("poisson:rate=1M,typo=3"),
               util::PreconditionError);
  EXPECT_THROW((void)reg().create("onoff:rate=1M,duty=1.5"),
               util::PreconditionError);
  EXPECT_THROW((void)reg().create("saturated:backlog=0"),
               util::PreconditionError);
  EXPECT_THROW((void)reg().create(""), util::PreconditionError);
}

TEST(TrafficModel, OfferedRateAndPacketSize) {
  EXPECT_DOUBLE_EQ(
      reg().create("poisson:rate=6M")->offered_rate()->to_bps(), 6e6);
  EXPECT_DOUBLE_EQ(
      reg().create("onoff:rate=3M,duty=0.3")->offered_rate()->to_bps(), 3e6);
  EXPECT_FALSE(reg().create("saturated")->offered_rate().has_value());
  // size= overrides the station default; otherwise the default applies.
  EXPECT_EQ(reg().create("cbr:rate=1M,size=600")->packet_size(1500), 600);
  EXPECT_EQ(reg().create("cbr:rate=1M")->packet_size(1500), 1500);
}

TEST(TrafficModelRegistry, AddRejectsDuplicatesAndEmpty) {
  TrafficModelRegistry local;
  TrafficModelRegistry::register_builtins(local);
  EXPECT_THROW(local.add("poisson", nullptr), util::PreconditionError);
  EXPECT_THROW(local.add("", [](const util::Options&) {
                 return std::unique_ptr<TrafficModel>();
               }),
               util::PreconditionError);
}

// Collects the network-layer arrival process of one model's source by
// reading the enqueue timestamps of delivered packets (delivery order
// may be MAC-noisy; arrivals are exact).
std::vector<double> arrivals_of(const char* spec, double seconds,
                                std::uint64_t seed) {
  WlanNetwork net(PhyParams::dot11b_short(), seed);
  auto& st = net.add_station();
  std::vector<double> arrivals;
  st.on_flow(0, [&arrivals](const mac::Packet& p) {
    arrivals.push_back(p.enqueue_time.to_seconds());
  });
  auto src = TrafficModelRegistry::global().create(spec)->instantiate(
      {net.simulator(), st, 0, 1500, net.rng("model")});
  src->start(TimeNs::zero());
  net.simulator().run_until(TimeNs::from_seconds(seconds));
  return arrivals;
}

TEST(OnOffSource, BurstLengthAndOffPeriodDistributions) {
  // Mean 1 Mb/s at 25% duty in 40 ms bursts of 500 B packets: peak
  // 4 Mb/s -> 1 ms on-gap, ~40 packets per burst, 120 ms mean off.
  const double kSeconds = 120.0;
  const std::vector<double> arrivals = arrivals_of(
      "onoff:rate=1M,duty=0.25,burst=40ms,size=500", kSeconds, 91);
  ASSERT_GT(arrivals.size(), 1000u);

  // Mean offered load converges to rate=.
  const double mean_mbps =
      static_cast<double>(arrivals.size()) * 500 * 8.0 / kSeconds / 1e6;
  EXPECT_NEAR(mean_mbps, 1.0, 0.15);

  // Split into bursts at gaps far above the 1 ms on-gap; off sojourns
  // of 120 ms mean land above 5 ms with probability ~0.96.
  std::vector<double> burst_packets;
  std::vector<double> off_gaps;
  int run = 1;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    const double gap = arrivals[i] - arrivals[i - 1];
    if (gap > 5e-3) {
      burst_packets.push_back(run);
      off_gaps.push_back(gap);
      run = 1;
    } else {
      ++run;
    }
  }
  ASSERT_GT(off_gaps.size(), 100u);

  double mean_burst = 0.0;
  for (double b : burst_packets) {
    mean_burst += b;
  }
  mean_burst /= static_cast<double>(burst_packets.size());
  // ~burst/on_gap packets per exponential(burst) on-period.
  EXPECT_NEAR(mean_burst, 40.0, 12.0);

  double mean_off = 0.0;
  for (double g : off_gaps) {
    mean_off += g;
  }
  mean_off /= static_cast<double>(off_gaps.size());
  EXPECT_NEAR(mean_off, 0.12, 0.03);

  // Exponential off sojourns: coefficient of variation ~= 1 (a fixed
  // off period would give ~0, heavy tails far above 1).
  double var = 0.0;
  for (double g : off_gaps) {
    var += (g - mean_off) * (g - mean_off);
  }
  var /= static_cast<double>(off_gaps.size());
  EXPECT_NEAR(std::sqrt(var) / mean_off, 1.0, 0.35);
}

TEST(SaturatedSource, KeepsStationBacklogged) {
  WlanNetwork net(PhyParams::dot11b_short(), 92);
  auto& st = net.add_station();
  SaturatedSource src(net.simulator(), st, 0, 1500, /*backlog=*/3);
  src.start(TimeNs::zero());
  net.simulator().run_until(TimeNs::sec(2));
  // Every completion refills: the queue never drains below the backlog.
  EXPECT_EQ(st.queue_length(), 3u);
  EXPECT_GT(st.stats().delivered, 500u);  // ~570/s at saturation
  EXPECT_EQ(src.generated(), st.stats().delivered + st.queue_length());
}

TEST(SaturatedSource, ThroughputConvergesToBianchiSaturation) {
  // n always-backlogged stations through the scenario builder must
  // reproduce Bianchi's saturation aggregate within the usual few
  // percent (same cross-validation as the calibration bench).
  for (int n : {1, 3}) {
    core::ScenarioConfig cfg;
    cfg.seed = 930 + static_cast<std::uint64_t>(n);
    for (int i = 0; i < n; ++i) {
      cfg.contenders.push_back(core::StationSpec::saturated(1500));
    }
    const core::ContentionResult r = core::Scenario(cfg).run_contention(
        TimeNs::sec(6), TimeNs::sec(1));
    const auto bi = mac::bianchi_saturation(cfg.phy, n, 1500);
    EXPECT_NEAR(r.aggregate.to_mbps(), bi.aggregate.to_mbps(),
                0.08 * bi.aggregate.to_mbps())
        << n << " stations";
    // Fair shares: every station lands near aggregate / n.
    for (const BitRate& per : r.per_contender) {
      EXPECT_NEAR(per.to_mbps(), bi.per_station.to_mbps(),
                  0.15 * bi.per_station.to_mbps());
    }
  }
}

}  // namespace
}  // namespace csmabw::traffic
