#include "exp/sweep.hpp"

#include <cmath>
#include <limits>

#include "core/method.hpp"
#include "topo/registry.hpp"
#include "util/require.hpp"

namespace csmabw::exp {

void SweepSpec::validate() const {
  CSMABW_REQUIRE(!contender_counts.empty(), "contender_counts axis is empty");
  CSMABW_REQUIRE(!cross_mbps.empty(), "cross_mbps axis is empty");
  CSMABW_REQUIRE(!phy_presets.empty(), "phy_presets axis is empty");
  CSMABW_REQUIRE(!train_lengths.empty(), "train_lengths axis is empty");
  CSMABW_REQUIRE(!probe_mbps.empty(), "probe_mbps axis is empty");
  CSMABW_REQUIRE(!fifo_cross.empty(), "fifo_cross axis is empty");
  CSMABW_REQUIRE(repetitions >= 1, "repetitions must be >= 1");
  CSMABW_REQUIRE(probe_size_bytes > 0, "probe_size_bytes must be positive");
  CSMABW_REQUIRE(cross_size_bytes > 0, "cross_size_bytes must be positive");
  if (!scenarios.empty()) {
    // The scenario axis defines phy/contenders/cross/fifo per entry;
    // sweeping both would silently ignore one side, so reject it.
    const SweepSpec defaults;
    CSMABW_REQUIRE(contender_counts == defaults.contender_counts &&
                       cross_mbps == defaults.cross_mbps &&
                       phy_presets == defaults.phy_presets &&
                       fifo_cross == defaults.fifo_cross &&
                       cross_size_bytes == defaults.cross_size_bytes &&
                       fifo_cross_mbps == defaults.fifo_cross_mbps &&
                       fifo_cross_size_bytes == defaults.fifo_cross_size_bytes,
                   "the scenarios axis replaces the contender_counts/"
                   "cross_mbps/phy_presets/fifo_cross axes and the "
                   "cross/fifo size and rate knobs; leave them at their "
                   "defaults");
    const core::ScenarioRegistry& registry = core::ScenarioRegistry::global();
    for (const auto& entry : scenarios) {
      // Throws on unknown names and malformed grammar — and validates
      // every traffic spec — before any campaign work starts.
      const core::ScenarioSpec scenario = registry.resolve(entry);
      if (!topologies.empty()) {
        CSMABW_REQUIRE(scenario.topology == topo::kDefaultTopology,
                       "scenario `" + entry + "` sets its own topology; "
                       "the topologies axis replaces the scenario's "
                       "`topology=` field — set one or the other");
        const int stations = 1 + static_cast<int>(scenario.contenders.size());
        for (const auto& topology : topologies) {
          // Grammar AND node-count validation: a grid:3x3 entry over a
          // 4-station scenario fails here, not mid-campaign.
          (void)topo::TopologyRegistry::global().build(topology, stations);
        }
      }
    }
  }
  CSMABW_REQUIRE(topologies.empty() || !scenarios.empty(),
                 "the topologies axis multiplies the scenarios axis; "
                 "give --scenarios/SweepSpec::scenarios at least one "
                 "entry (station counts come from the scenario)");
  for (int c : contender_counts) {
    CSMABW_REQUIRE(c >= 0, "contender counts must be >= 0");
  }
  for (double r : cross_mbps) {
    CSMABW_REQUIRE(r > 0.0, "cross rates must be positive");
  }
  for (int n : train_lengths) {
    CSMABW_REQUIRE(n >= 2, "train lengths must be >= 2");
  }
  for (double r : probe_mbps) {
    CSMABW_REQUIRE(r > 0.0, "probe rates must be positive");
  }
  for (const auto& name : phy_presets) {
    (void)phy_preset(name);  // throws on unknown names
  }
  const core::MethodRegistry& registry =
      method_registry != nullptr ? *method_registry
                                 : core::MethodRegistry::global();
  for (const auto& spec : methods) {
    // Throws on unknown names, unknown option keys and malformed values
    // — bad method specs fail before any campaign work starts.
    (void)registry.create(spec);
  }
}

std::int64_t SweepSpec::grid_size() const {
  const std::int64_t scenario_axes =
      scenarios.empty()
          ? static_cast<std::int64_t>(contender_counts.size()) *
                static_cast<std::int64_t>(cross_mbps.size()) *
                static_cast<std::int64_t>(phy_presets.size()) *
                static_cast<std::int64_t>(fifo_cross.size())
          : static_cast<std::int64_t>(scenarios.size()) *
                static_cast<std::int64_t>(
                    topologies.empty() ? 1 : topologies.size());
  return scenario_axes * static_cast<std::int64_t>(train_lengths.size()) *
         static_cast<std::int64_t>(probe_mbps.size()) *
         static_cast<std::int64_t>(methods.empty() ? 1 : methods.size());
}

Campaign::Campaign(SweepSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
  // A campaign without a methods axis expands exactly as before the axis
  // existed (cells carry an empty method spec).
  const std::vector<std::string> method_axis =
      spec_.methods.empty() ? std::vector<std::string>{std::string()}
                            : spec_.methods;
  cells_.reserve(static_cast<std::size_t>(spec_.grid_size()));

  // Finishes a cell whose coordinate columns and scenario stations are
  // already stamped: index, seed and probe train.
  const auto finish_cell = [&](Cell cell) {
    cell.index = static_cast<int>(cells_.size());
    cell.repetitions = spec_.repetitions;
    cell.scenario.seed = cell_seed(spec_.campaign_seed, cell.index);
    cell.train.n = cell.train_length;
    cell.train.size_bytes = spec_.probe_size_bytes;
    cell.train.gap =
        BitRate::mbps(cell.probe_mbps).gap_for(spec_.probe_size_bytes);
    cells_.push_back(std::move(cell));
  };

  if (!spec_.scenarios.empty()) {
    // Scenario axis: scenario (outermost) > topology > train length >
    // probe rate > method; the scenario entry fixes
    // phy/contenders/cross/fifo and, when the topologies axis is set,
    // each topology entry overrides the scenario's conflict graph.
    // Without a topologies axis the expansion is exactly the pre-axis
    // one (a single pass-through entry leaves labels and configs
    // untouched).
    const std::vector<std::string> topology_axis =
        spec_.topologies.empty() ? std::vector<std::string>{std::string()}
                                 : spec_.topologies;
    const core::ScenarioRegistry& registry = core::ScenarioRegistry::global();
    for (const std::string& entry : spec_.scenarios) {
      const core::ScenarioSpec base = registry.resolve(entry);
      const std::optional<BitRate> load = base.offered_load();
      for (const std::string& topology : topology_axis) {
        core::ScenarioSpec scenario = base;
        if (!topology.empty()) {
          scenario.topology =
              topo::TopologyRegistry::global().canonical(topology);
        }
        // Topology-axis cells are labelled with the full grammar string
        // (topology included): (scenario, topology) stays a distinct
        // coordinate without growing the collector's column set.
        const std::string label =
            topology.empty() ? scenario.label() : scenario.describe();
        for (int train_length : spec_.train_lengths) {
          for (double probe : spec_.probe_mbps) {
            for (const std::string& method : method_axis) {
              Cell cell;
              cell.scenario_name = label;
              cell.contenders = static_cast<int>(scenario.contenders.size());
              cell.cross_mbps =
                  load.has_value() ? load->to_mbps()
                                   : std::numeric_limits<double>::quiet_NaN();
              cell.phy_preset = scenario.phy_preset;
              cell.train_length = train_length;
              cell.probe_mbps = probe;
              cell.fifo = scenario.fifo.has_value();
              cell.method = method;
              cell.scenario = scenario.to_config(/*seed=*/0);
              finish_cell(std::move(cell));
            }
          }
        }
      }
    }
    return;
  }

  for (const auto& phy_name : spec_.phy_presets) {
    const mac::PhyParams phy = phy_preset(phy_name);
    for (int contenders : spec_.contender_counts) {
      for (double cross : spec_.cross_mbps) {
        for (int train_length : spec_.train_lengths) {
          for (double probe : spec_.probe_mbps) {
            for (bool fifo : spec_.fifo_cross) {
              for (const std::string& method : method_axis) {
                Cell cell;
                cell.contenders = contenders;
                cell.cross_mbps = cross;
                cell.phy_preset = phy_name;
                cell.train_length = train_length;
                cell.probe_mbps = probe;
                cell.fifo = fifo;
                cell.method = method;
                cell.scenario.phy = phy;
                for (int k = 0; k < contenders; ++k) {
                  cell.scenario.contenders.push_back(
                      core::StationSpec::poisson(BitRate::mbps(cross),
                                                 spec_.cross_size_bytes));
                }
                if (fifo) {
                  cell.scenario.fifo_cross = core::StationSpec::poisson(
                      BitRate::mbps(spec_.fifo_cross_mbps),
                      spec_.fifo_cross_size_bytes);
                }
                finish_cell(std::move(cell));
              }
            }
          }
        }
      }
    }
  }
}

const SweepSpec& Campaign::spec() const {
  CSMABW_REQUIRE(!custom_cells_,
                 "campaign was built from explicit cells; the grid spec "
                 "does not describe it — read cells() instead");
  return spec_;
}

Campaign::Campaign(std::vector<Cell> cells, std::uint64_t campaign_seed)
    : cells_(std::move(cells)), custom_cells_(true) {
  CSMABW_REQUIRE(!cells_.empty(), "campaign needs at least one cell");
  spec_.campaign_seed = campaign_seed;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    Cell& cell = cells_[i];
    cell.index = static_cast<int>(i);
    cell.scenario.seed = cell_seed(campaign_seed, cell.index);
    CSMABW_REQUIRE(cell.repetitions >= 1, "cell repetitions must be >= 1");
  }
}

std::int64_t Campaign::total_repetitions() const {
  std::int64_t total = 0;
  for (const auto& cell : cells_) {
    total += cell.repetitions;
  }
  return total;
}

std::vector<std::string> split_scenario_list(std::string_view text) {
  std::vector<std::string> entries;
  CSMABW_REQUIRE(!text.empty(), "scenario list is empty");
  std::size_t pos = 0;
  while (true) {
    const std::size_t bar = text.find('|', pos);
    const std::size_t end = bar == std::string_view::npos ? text.size()
                                                          : bar;
    std::string_view element = text.substr(pos, end - pos);
    while (!element.empty() && element.front() == ' ') {
      element.remove_prefix(1);
    }
    while (!element.empty() && element.back() == ' ') {
      element.remove_suffix(1);
    }
    CSMABW_REQUIRE(!element.empty(), "empty element in scenario list `" +
                                         std::string(text) + "`");
    entries.emplace_back(element);
    if (bar == std::string_view::npos) {
      break;
    }
    pos = bar + 1;
  }
  return entries;
}

}  // namespace csmabw::exp
