#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "topo/registry.hpp"
#include "topo/topology.hpp"
#include "traffic/probe_train.hpp"
#include "util/require.hpp"

namespace csmabw::core {
namespace {

TEST(ScenarioSpec, ParseDescribeRoundTrips) {
  for (const char* text : {
           "phy=dot11b_short",
           "phy=dot11b_short;contenders=1x poisson:rate=2M",
           "phy=dot11g;contenders=3x onoff:rate=6M,duty=0.3,burst=50ms",
           "contenders=2x saturated + 1x saturated@2M",
           "name=fig3;phy=dot11b_short;contenders=1x poisson:rate=2M;"
           "fifo=poisson:rate=1M",
           "contenders=1x cbr:rate=2M/1000 + 2x poisson:rate=1M",
           "contenders=1x poisson:rate=2M/1000@5.5M",
           "phy=dot11b_short;topology=grid:3x3;"
           "contenders=8x poisson:rate=400k",
           "topology=pairs-hidden:2;contenders=1x poisson:rate=2M",
           "name=ring;topology=ring:4;contenders=3x saturated",
       }) {
    const ScenarioSpec spec = ScenarioSpec::parse(text);
    EXPECT_EQ(ScenarioSpec::parse(spec.describe()), spec) << text;
    // describe() is canonical: describing the reparse changes nothing.
    EXPECT_EQ(ScenarioSpec::parse(spec.describe()).describe(),
              spec.describe())
        << text;
  }
}

TEST(ScenarioSpec, ParseReadsEveryField) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "name=mixed;phy=dot11b_long;"
      "contenders=2x saturated + 1x poisson:rate=1.5M/600@2M;"
      "fifo=cbr:rate=1M/800");
  EXPECT_EQ(spec.name, "mixed");
  EXPECT_EQ(spec.phy_preset, "dot11b_long");
  ASSERT_EQ(spec.contenders.size(), 3u);
  EXPECT_EQ(spec.contenders[0].traffic, "saturated");
  EXPECT_EQ(spec.contenders[0].size_bytes, 1500);
  EXPECT_FALSE(spec.contenders[0].data_rate_bps.has_value());
  EXPECT_EQ(spec.contenders[1], spec.contenders[0]);
  EXPECT_EQ(spec.contenders[2].traffic, "poisson:rate=1.5M");
  EXPECT_EQ(spec.contenders[2].size_bytes, 600);
  ASSERT_TRUE(spec.contenders[2].data_rate_bps.has_value());
  EXPECT_DOUBLE_EQ(*spec.contenders[2].data_rate_bps, 2e6);
  ASSERT_TRUE(spec.fifo.has_value());
  EXPECT_EQ(spec.fifo->traffic, "cbr:rate=1M");
  EXPECT_EQ(spec.fifo->size_bytes, 800);
}

TEST(ScenarioSpec, TopologyDefaultsToCliqueAndIsOmittedFromDescribe) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("contenders=1x poisson:rate=2M");
  EXPECT_EQ(spec.topology, "clique");
  EXPECT_EQ(spec.describe().find("topology"), std::string::npos);
  // An explicit bare clique canonicalizes to the default and is also
  // omitted — pre-topology spellings stay stable byte for byte.
  const ScenarioSpec explicit_clique =
      ScenarioSpec::parse("topology=clique;contenders=1x poisson:rate=2M");
  EXPECT_EQ(explicit_clique, spec);
  EXPECT_EQ(explicit_clique.describe(), spec.describe());
}

TEST(ScenarioSpec, TopologyFieldCanonicalizesAndRoundTrips) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "topology=grid:03x3;contenders=8x poisson:rate=400k");
  EXPECT_EQ(spec.topology, "grid:3x3");
  // Placed right after phy in the canonical spelling.
  EXPECT_EQ(spec.describe(),
            "phy=dot11b_short;topology=grid:3x3;"
            "contenders=8x poisson:rate=400k");
  EXPECT_EQ(ScenarioSpec::parse(spec.describe()), spec);
  // Station-count checking is deliberately deferred to build time:
  // grid:3x3 over 3 stations parses, then Scenario rejects it eagerly.
  const ScenarioSpec mismatched = ScenarioSpec::parse(
      "topology=grid:3x3;contenders=2x poisson:rate=2M");
  EXPECT_THROW(Scenario scenario(mismatched.to_config(1)),
               util::PreconditionError);
}

TEST(ScenarioSpec, TopologyFieldRejectsBadSpecs) {
  EXPECT_THROW(
      (void)ScenarioSpec::parse("topology=mesh:3;contenders=1x saturated"),
      util::PreconditionError);
  EXPECT_THROW(
      (void)ScenarioSpec::parse("topology=grid:3;contenders=1x saturated"),
      util::PreconditionError);
  EXPECT_THROW((void)ScenarioSpec::parse(
                   "topology=grid:2x2;topology=grid:2x2;"
                   "contenders=3x saturated"),
               util::PreconditionError);
}

TEST(ScenarioSpec, DescribeGroupsAdjacentEqualStations) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "contenders=1x saturated + 1x saturated + 1x saturated@2M");
  EXPECT_EQ(spec.describe(),
            "phy=dot11b_short;contenders=2x saturated + saturated@2M");
}

TEST(ScenarioSpec, ParseRejectsMalformedSpecs) {
  for (const char* text : {
           "",
           "phy=dot11n",                        // unknown preset
           "warp=1",                            // unknown key
           "phy=dot11b_short;phy=dot11g",       // duplicate field
           "contenders=0x saturated",           // zero count
           "contenders=3 saturated",            // missing 'x'
           "contenders=saturated +",            // empty group
           "contenders=1x warp:rate=1M",        // unknown traffic model
           "contenders=1x poisson:rate=1M/0",   // bad size
           "contenders=1x saturated@0M",        // bad rate override
           "fifo=2x poisson:rate=1M",           // fifo cannot multiply
           "fifo=poisson:rate=1M@2M",           // fifo cannot set PHY rate
           "name=a b;phy=dot11b_short",         // bad name character
           "contenders=1x",                     // no traffic spec
       }) {
    EXPECT_THROW((void)ScenarioSpec::parse(text), util::PreconditionError)
        << "`" << text << "`";
  }
}

TEST(ScenarioSpec, LabelPrefersName) {
  EXPECT_EQ(ScenarioSpec::parse("name=het;phy=dot11g").label(), "het");
  EXPECT_EQ(ScenarioSpec::parse("phy=dot11g").label(), "phy=dot11g");
}

TEST(ScenarioSpec, OfferedLoadSumsKnownRates) {
  const auto load = ScenarioSpec::parse(
                        "contenders=2x poisson:rate=2M + 1x cbr:rate=1M")
                        .offered_load();
  ASSERT_TRUE(load.has_value());
  EXPECT_DOUBLE_EQ(load->to_mbps(), 5.0);
  EXPECT_FALSE(ScenarioSpec::parse(
                   "contenders=1x poisson:rate=2M + 1x saturated")
                   .offered_load()
                   .has_value());
}

TEST(ScenarioSpec, ToConfigMaterializesPhyAndStations) {
  const ScenarioConfig cfg =
      ScenarioSpec::parse("phy=dot11g;contenders=2x saturated@2M;"
                          "fifo=poisson:rate=1M")
          .to_config(/*seed=*/7);
  EXPECT_EQ(cfg.phy.slot_time, mac::PhyParams::dot11g().slot_time);
  EXPECT_EQ(cfg.seed, 7u);
  ASSERT_EQ(cfg.contenders.size(), 2u);
  EXPECT_TRUE(cfg.fifo_cross.has_value());
}

TEST(ScenarioRegistry, BuiltinsResolveAndRoundTrip) {
  ScenarioRegistry& reg = ScenarioRegistry::global();
  const std::vector<std::string> names = reg.names();
  ASSERT_GE(names.size(), 5u);
  for (const auto& name : names) {
    const ScenarioSpec& spec = reg.get(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_EQ(spec.label(), name);
    EXPECT_EQ(ScenarioSpec::parse(spec.describe()), spec) << name;
    // resolve() by name returns the registered spec verbatim.
    EXPECT_EQ(reg.resolve(name), spec);
  }
  EXPECT_TRUE(reg.contains("rate_anomaly"));
  EXPECT_EQ(reg.get("rate_anomaly").contenders.size(), 3u);
}

TEST(ScenarioRegistry, ResolveFallsBackToGrammar) {
  const ScenarioSpec spec =
      ScenarioRegistry::global().resolve("contenders=1x poisson:rate=3M");
  EXPECT_TRUE(spec.name.empty());
  ASSERT_EQ(spec.contenders.size(), 1u);
  EXPECT_THROW((void)ScenarioRegistry::global().resolve("no_such_scenario"),
               util::PreconditionError);
}

TEST(ScenarioRegistry, AddRejectsDuplicatesAndSetsName) {
  ScenarioRegistry local;
  local.add("mine", ScenarioSpec::parse("phy=dot11g"));
  EXPECT_EQ(local.get("mine").name, "mine");
  EXPECT_THROW(local.add("mine", ScenarioSpec::parse("phy=dot11g")),
               util::PreconditionError);
  EXPECT_THROW(local.add("bad name", ScenarioSpec::parse("phy=dot11g")),
               util::PreconditionError);
}

TEST(ScenarioCell, AppliesPerStationDataRateOverride) {
  const ScenarioConfig cfg =
      ScenarioSpec::parse("contenders=1x saturated + 1x saturated@2M")
          .to_config(3);
  ScenarioCell cell(cfg, /*repetition=*/0);
  EXPECT_EQ(cell.contender_count(), 2);
  EXPECT_DOUBLE_EQ(cell.contender_station(0).data_rate_bps(), 11e6);
  EXPECT_DOUBLE_EQ(cell.contender_station(1).data_rate_bps(), 2e6);
}

TEST(Scenario, RunContentionMetersHeterogeneousStations) {
  // The rate anomaly end to end: one 2 Mb/s laggard drags the fast
  // saturated station down to roughly the laggard's share.
  const ScenarioConfig cfg =
      ScenarioSpec::parse("contenders=1x saturated + 1x saturated@2M")
          .to_config(11);
  const ContentionResult r =
      Scenario(cfg).run_contention(TimeNs::sec(6), TimeNs::sec(1));
  ASSERT_EQ(r.per_contender.size(), 2u);
  const double fast = r.per_contender[0].to_mbps();
  const double slow = r.per_contender[1].to_mbps();
  EXPECT_GT(fast, 0.5);
  // Packet-fair DCF: both stations deliver similar packet rates, far
  // below the fast station's solo share (~6.9 Mb/s).
  EXPECT_NEAR(fast, slow, 0.35 * fast);
  EXPECT_LT(fast, 3.0);
  EXPECT_GT(r.medium.successes, 0u);
}

TEST(Scenario, SteadyStateMetersReactiveFifoSource) {
  // Regression: the steady-state fifo meter must observe the flow
  // beside the handler a reactive source (saturated) registered for it
  // — a meter that displaced it would silently starve the flow.
  const ScenarioConfig cfg =
      ScenarioSpec::parse("fifo=saturated").to_config(13);
  const SteadyStateResult r = Scenario(cfg).run_steady_state(
      BitRate::mbps(0.5), 1500, TimeNs::sec(4), TimeNs::sec(1));
  EXPECT_NEAR(r.probe.to_mbps(), 0.5, 0.05);
  // The saturated fifo flow soaks up the rest of the lone station's
  // capacity (~6.9 Mb/s for this preset).
  EXPECT_GT(r.fifo_cross.to_mbps(), 4.0);
}

TEST(Scenario, RunContentionValidatesWindow) {
  ScenarioConfig cfg;
  cfg.contenders.push_back(StationSpec::saturated());
  EXPECT_THROW((void)Scenario(cfg).run_contention(TimeNs::sec(1),
                                                  TimeNs::sec(2)),
               util::PreconditionError);
}

TEST(Scenario, RejectsBadTrafficSpecsEagerly) {
  ScenarioConfig cfg;
  StationSpec bad;
  bad.traffic = "warp:rate=1M";
  cfg.contenders.push_back(bad);
  EXPECT_THROW(Scenario{cfg}, util::PreconditionError);

  ScenarioConfig fifo_rate;
  fifo_rate.fifo_cross = StationSpec::poisson(BitRate::mbps(1.0));
  fifo_rate.fifo_cross->data_rate_bps = 2e6;  // rides the probe station
  EXPECT_THROW(Scenario{fifo_rate}, util::PreconditionError);
}

// --------------------------------------------------- one graph per scenario

/// Departure instants (ns; -1 for a drop) of a repetition's probes.
std::vector<std::int64_t> departures(const TrainRun& run) {
  std::vector<std::int64_t> out;
  for (const mac::Packet& p : run.packets) {
    out.push_back(p.dropped ? -1 : p.depart_time.count());
  }
  return out;
}

traffic::TrainSpec short_train() {
  traffic::TrainSpec train;
  train.n = 20;
  train.size_bytes = 1500;
  train.gap = BitRate::mbps(5.0).gap_for(1500);
  return train;
}

// The radio geometry belongs to the scenario, not to the repetition: a
// Scenario builds its graph once and every repetition's medium reads
// that one graph, with the same bytes as a graph built per repetition.
TEST(ScenarioTopology, RepetitionsShareOneGraphBuild) {
  static std::atomic<int> builds{0};
  topo::TopologyRegistry& registry = topo::TopologyRegistry::global();
  if (!registry.contains("counting-ring")) {
    registry.add("counting-ring",
                 topo::TopologyRegistry::Generator{
                     [](std::string_view) { return std::string(); },
                     [](std::string_view, int stations) {
                       ++builds;
                       return topo::Topology::ring(stations);
                     },
                     "test-only: a ring sized to the cell that counts its "
                     "builds"});
  }
  ScenarioConfig cfg =
      ScenarioSpec::parse("topology=ring:4;contenders=3x poisson:rate=1M")
          .to_config(7);
  const Scenario by_spec(cfg);
  cfg.topology = "counting-ring";
  builds = 0;
  const Scenario counted(cfg);
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(departures(counted.run_train(short_train(), rep)),
              departures(by_spec.run_train(short_train(), rep)))
        << "repetition " << rep;
  }
  EXPECT_EQ(builds.load(), 1);
}

// A `file:` graph is read when the Scenario is built; no repetition
// opens the file again.
TEST(ScenarioTopology, FileGraphOutlivesItsFile) {
  const std::string path =
      testing::TempDir() + "/scenario_spec_test_graph.topo";
  {
    std::ofstream f(path);
    f << "nodes: 3\nsense: 0 1\nsense: 0 2\ninterfere: 1 2\n";
  }
  ScenarioConfig cfg =
      ScenarioSpec::parse("contenders=2x poisson:rate=2M").to_config(5);
  cfg.topology = "file:" + path;
  const Scenario scenario(cfg);
  const TrainRun before = scenario.run_train(short_train(), 3);
  ASSERT_EQ(std::remove(path.c_str()), 0);
  TrainRun after;
  ASSERT_NO_THROW(after = scenario.run_train(short_train(), 3));
  EXPECT_EQ(departures(after), departures(before));
}

TEST(ScenarioTopology, CellRejectsAGraphOfAnotherStationCount) {
  const ScenarioConfig cfg =
      ScenarioSpec::parse("topology=ring:4;contenders=3x saturated")
          .to_config();
  const std::vector<TrafficModelPtr> models(
      3, traffic::TrafficModelRegistry::global().create("saturated"));
  EXPECT_THROW((void)ScenarioCell(cfg, 0, models, nullptr,
                                  std::make_shared<const topo::Topology>(
                                      topo::Topology::ring(5))),
               util::PreconditionError);
  EXPECT_NO_THROW(
      (void)ScenarioCell(cfg, 0, models, nullptr, build_topology(cfg)));
  // The bare clique builds no graph.
  EXPECT_EQ(build_topology(ScenarioConfig{}), nullptr);
}

TEST(TrainRun, AccessDelaysEnforceNoDropPrecondition) {
  // Regression: the documented !any_dropped precondition must be
  // enforced, not just documented.
  TrainRun run;
  run.packets.resize(3);
  run.any_dropped = true;
  EXPECT_THROW((void)run.access_delays_s(), util::PreconditionError);
  EXPECT_THROW((void)run.output_gap_s(), util::PreconditionError);
  run.any_dropped = false;
  EXPECT_NO_THROW((void)run.access_delays_s());
}

}  // namespace
}  // namespace csmabw::core
