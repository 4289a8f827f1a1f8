#include "exp/sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/require.hpp"
#include "util/units.hpp"

namespace csmabw::exp {
namespace {

TEST(SweepSpec, GridSizeIsAxisProduct) {
  SweepSpec spec;
  spec.scenarios = {"contenders=poisson:rate=1M",
                    "contenders=2x poisson:rate=1M",
                    "phy=dot11b_long;contenders=3x poisson:rate=2M"};
  spec.train_lengths = {100};
  spec.probe_mbps = {4.0, 5.0};
  spec.methods = {"steady_state", "packet_pair"};
  EXPECT_EQ(spec.grid_size(), 3 * 1 * 2 * 2);
  spec.topologies = {"clique", "ring:4"};
  EXPECT_EQ(spec.grid_size(), 3 * 2 * 1 * 2 * 2);
}

TEST(SweepSpec, ValidateRejectsEmptyAndBadAxes) {
  SweepSpec spec;
  EXPECT_NO_THROW(spec.validate());  // the default paper_fig2 cell
  spec.scenarios.clear();
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  spec = SweepSpec{};
  spec.scenarios = {"no_such_scenario"};
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  spec = SweepSpec{};
  spec.scenarios = {"contenders=1x warp:rate=1M"};
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  spec = SweepSpec{};
  spec.scenarios = {"contenders=poisson:rate=-1M"};
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  spec = SweepSpec{};
  spec.scenarios = {"phy=no_such_phy;contenders=poisson:rate=1M"};
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  spec = SweepSpec{};
  spec.repetitions = 0;
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  spec = SweepSpec{};
  spec.train_lengths = {1};
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  spec = SweepSpec{};
  spec.train_lengths.clear();
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  spec = SweepSpec{};
  spec.probe_mbps = {0.0};
  EXPECT_THROW(spec.validate(), util::PreconditionError);
}

TEST(Campaign, ExpandsFullCartesianProductInDocumentedOrder) {
  SweepSpec spec;
  spec.scenarios = {"contenders=poisson:rate=1M",
                    "contenders=2x poisson:rate=4M;fifo=poisson:rate=1M"};
  spec.train_lengths = {50, 80};
  spec.probe_mbps = {4.0, 5.0};
  spec.repetitions = 7;
  const Campaign campaign(spec);

  ASSERT_EQ(campaign.size(), 8);
  EXPECT_EQ(campaign.total_repetitions(), 8 * 7);
  // scenario > train > probe, probe innermost.
  // Inline entries are labelled with their canonical grammar.
  EXPECT_EQ(campaign.cells()[0].scenario_name,
            "phy=dot11b_short;contenders=poisson:rate=1M");
  EXPECT_EQ(campaign.cells()[4].scenario_name,
            "phy=dot11b_short;contenders=2x poisson:rate=4M;"
            "fifo=poisson:rate=1M");
  EXPECT_EQ(campaign.cells()[0].contenders, 1);
  EXPECT_DOUBLE_EQ(campaign.cells()[0].cross_mbps, 1.0);
  EXPECT_FALSE(campaign.cells()[0].fifo);
  EXPECT_EQ(campaign.cells()[0].train_length, 50);
  EXPECT_DOUBLE_EQ(campaign.cells()[0].probe_mbps, 4.0);
  EXPECT_DOUBLE_EQ(campaign.cells()[1].probe_mbps, 5.0);
  EXPECT_EQ(campaign.cells()[2].train_length, 80);
  EXPECT_EQ(campaign.cells()[4].contenders, 2);
  // cross_mbps is the contenders' total offered load.
  EXPECT_DOUBLE_EQ(campaign.cells()[4].cross_mbps, 8.0);
  EXPECT_TRUE(campaign.cells()[4].fifo);
  for (int i = 0; i < campaign.size(); ++i) {
    const Cell& cell = campaign.cells()[static_cast<std::size_t>(i)];
    EXPECT_EQ(cell.index, i);
    EXPECT_EQ(cell.repetitions, 7);
    EXPECT_EQ(cell.scenario.seed,
              Campaign::cell_seed(spec.campaign_seed, i));
    EXPECT_EQ(cell.scenario.contenders.size(),
              static_cast<std::size_t>(cell.contenders));
    EXPECT_EQ(cell.scenario.fifo_cross.has_value(), cell.fifo);
    EXPECT_EQ(cell.train.n, cell.train_length);
    EXPECT_EQ(cell.train.size_bytes, 1500);
    EXPECT_EQ(cell.train.gap, BitRate::mbps(cell.probe_mbps).gap_for(1500));
  }
}

TEST(Campaign, PoissonEntriesKeepStationSpecPoissonText) {
  // Benches spell the paper's cell at computed loads (fig10's are
  // rate_for_load fractions) as scenario entries.  Parsing an entry
  // must give back the exact station StationSpec::poisson builds, whose
  // text the cache key hashes.
  const mac::PhyParams phy = mac::PhyParams::dot11b_short();
  SweepSpec spec;
  spec.scenarios.clear();
  std::vector<core::StationSpec> stations;
  for (double load = 0.05; load <= 1.0 + 1e-9; load += 0.05) {
    core::ScenarioSpec scenario;
    scenario.contenders.push_back(core::StationSpec::poisson(
        BitRate::mbps(phy.rate_for_load(load, 1500).to_mbps())));
    spec.scenarios.push_back(scenario.describe());
    stations.push_back(scenario.contenders.front());
  }
  const Campaign campaign(spec);
  ASSERT_EQ(campaign.cells().size(), stations.size());
  for (std::size_t i = 0; i < stations.size(); ++i) {
    EXPECT_EQ(campaign.cells()[i].scenario.contenders,
              std::vector<core::StationSpec>{stations[i]})
        << spec.scenarios[i];
  }
}

TEST(Campaign, SingleCellCampaignPreservesCampaignSeed) {
  // Cell 0's scenario seed equals the campaign seed, so single-cell
  // campaigns reproduce the legacy serial benches' streams exactly.
  SweepSpec spec;
  spec.campaign_seed = 42;
  const Campaign campaign(spec);
  ASSERT_EQ(campaign.size(), 1);
  EXPECT_EQ(campaign.cells()[0].scenario_name, "paper_fig2");
  EXPECT_EQ(campaign.cells()[0].scenario.seed, 42u);
}

TEST(Campaign, CustomCellListIsReindexedAndSeeded) {
  std::vector<Cell> cells(3);
  for (auto& cell : cells) {
    cell.repetitions = 1;
    cell.index = 99;  // deliberately wrong; constructor must fix it
  }
  const Campaign campaign(std::move(cells), 7);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(campaign.cells()[static_cast<std::size_t>(i)].index, i);
    EXPECT_EQ(campaign.cells()[static_cast<std::size_t>(i)].scenario.seed,
              7u + static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(campaign.campaign_seed(), 7u);
  // The grid spec does not describe a custom-cell campaign.
  EXPECT_THROW((void)campaign.spec(), util::PreconditionError);
}

TEST(PhyPreset, ResolvesAllNamesAndRejectsUnknown) {
  for (const auto& name : core::phy_preset_names()) {
    EXPECT_NO_THROW((void)core::phy_preset(name));
  }
  EXPECT_THROW((void)core::phy_preset("dot11n"), util::PreconditionError);
}

TEST(Campaign, ScenarioAxisIsOutermost) {
  SweepSpec spec;
  spec.scenarios = {"paper_fig2",
                    "name=het;phy=dot11g;contenders=2x saturated + "
                    "1x saturated@2M",
                    "contenders=1x onoff:rate=3M,duty=0.3"};
  spec.train_lengths = {40, 80};
  spec.probe_mbps = {5.0};
  spec.repetitions = 3;
  EXPECT_EQ(spec.grid_size(), 3 * 2);
  const Campaign campaign(spec);
  ASSERT_EQ(campaign.size(), 6);

  // Scenario outermost, train length inner: fig2/40, fig2/80, het/40...
  EXPECT_EQ(campaign.cells()[0].scenario_name, "paper_fig2");
  EXPECT_EQ(campaign.cells()[0].train_length, 40);
  EXPECT_EQ(campaign.cells()[1].scenario_name, "paper_fig2");
  EXPECT_EQ(campaign.cells()[1].train_length, 80);
  EXPECT_EQ(campaign.cells()[2].scenario_name, "het");

  // Coordinates reflect the scenario entry.
  const Cell& fig2 = campaign.cells()[0];
  EXPECT_EQ(fig2.contenders, 1);
  EXPECT_DOUBLE_EQ(fig2.cross_mbps, 2.0);
  EXPECT_EQ(fig2.phy_preset, "dot11b_short");
  EXPECT_FALSE(fig2.fifo);
  ASSERT_EQ(fig2.scenario.contenders.size(), 1u);
  EXPECT_EQ(fig2.scenario.seed, Campaign::cell_seed(spec.campaign_seed, 0));

  const Cell& het = campaign.cells()[2];
  EXPECT_EQ(het.contenders, 3);
  EXPECT_TRUE(std::isnan(het.cross_mbps));  // saturated: unbounded load
  EXPECT_EQ(het.phy_preset, "dot11g");
  ASSERT_TRUE(het.scenario.contenders[2].data_rate_bps.has_value());

  // An inline grammar without a name labels cells with its canonical
  // text.
  EXPECT_EQ(campaign.cells()[4].scenario_name,
            "phy=dot11b_short;contenders=onoff:rate=3M,duty=0.3,burst=50ms");
}

TEST(Campaign, ScenarioAxisComposesWithMethods) {
  SweepSpec spec;
  spec.scenarios = {"paper_fig2", "bursty"};
  spec.methods = {"packet_pair:pairs=5", "steady_state"};
  spec.repetitions = 1;
  const Campaign campaign(spec);
  ASSERT_EQ(campaign.size(), 4);
  EXPECT_EQ(campaign.cells()[0].scenario_name, "paper_fig2");
  EXPECT_EQ(campaign.cells()[0].method, "packet_pair:pairs=5");
  EXPECT_EQ(campaign.cells()[1].method, "steady_state");
  EXPECT_EQ(campaign.cells()[2].scenario_name, "bursty");
}

TEST(Campaign, TopologyAxisMultipliesScenarios) {
  SweepSpec spec;
  spec.scenarios = {"contenders=8x poisson:rate=400k"};
  spec.topologies = {"clique", "grid:03x3", "ring:9"};
  spec.train_lengths = {40};
  spec.repetitions = 2;
  EXPECT_EQ(spec.grid_size(), 3);
  const Campaign campaign(spec);
  ASSERT_EQ(campaign.size(), 3);

  // Topology-axis cells carry the full grammar (canonicalized) as
  // their label; the default clique stays omitted so the label equals
  // the plain scenario's.
  EXPECT_EQ(campaign.cells()[0].scenario_name,
            "phy=dot11b_short;contenders=8x poisson:rate=400k");
  EXPECT_EQ(campaign.cells()[0].scenario.topology, "clique");
  EXPECT_EQ(campaign.cells()[1].scenario_name,
            "phy=dot11b_short;topology=grid:3x3;"
            "contenders=8x poisson:rate=400k");
  EXPECT_EQ(campaign.cells()[1].scenario.topology, "grid:3x3");
  EXPECT_EQ(campaign.cells()[2].scenario.topology, "ring:9");
  // Shared coordinates are untouched by the axis.
  for (const Cell& cell : campaign.cells()) {
    EXPECT_EQ(cell.contenders, 8);
    EXPECT_EQ(cell.phy_preset, "dot11b_short");
  }
}

TEST(SweepSpec, TopologyAxisValidatesEagerly) {
  // Station counts come from the scenario: the default two-station
  // paper_fig2 cell does not fit a 9-node grid.
  SweepSpec spec;
  spec.topologies = {"grid:3x3"};
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  spec.topologies = {"pairs-hidden:2"};
  EXPECT_NO_THROW(spec.validate());
  // Node-count mismatch fails at validate, not mid-campaign.
  spec = SweepSpec{};
  spec.scenarios = {"contenders=2x poisson:rate=2M"};
  spec.topologies = {"grid:3x3"};
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  // Malformed topology arg.
  spec = SweepSpec{};
  spec.scenarios = {"paper_fig2"};
  spec.topologies = {"grid:two"};
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  // A scenario with its own topology= field conflicts with the axis.
  spec = SweepSpec{};
  spec.scenarios = {"topology=pairs-hidden:2;contenders=1x saturated"};
  spec.topologies = {"clique"};
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  // ...but is fine without the axis.
  spec.topologies.clear();
  spec.validate();
}

TEST(SplitScenarioList, SplitsOnBarsAndTrims) {
  const auto entries =
      split_scenario_list("paper_fig2 | name=x;phy=dot11g |rate_anomaly");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], "paper_fig2");
  EXPECT_EQ(entries[1], "name=x;phy=dot11g");
  EXPECT_EQ(entries[2], "rate_anomaly");
  EXPECT_THROW((void)split_scenario_list(""), util::PreconditionError);
  EXPECT_THROW((void)split_scenario_list("a||b"), util::PreconditionError);
  EXPECT_THROW((void)split_scenario_list("a| |b"), util::PreconditionError);
}

}  // namespace
}  // namespace csmabw::exp
