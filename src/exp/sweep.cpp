#include "exp/sweep.hpp"

#include <limits>
#include <optional>
#include <utility>

#include "core/method.hpp"
#include "topo/registry.hpp"
#include "util/require.hpp"

namespace csmabw::exp {

namespace {

/// Every probe train of a grid campaign sends packets of this size.
constexpr int kProbeSizeBytes = 1500;

/// Validates `spec` and resolves each scenario entry once, in axis
/// order.  Unknown names, malformed grammar, bad traffic or method specs
/// and topology node-count mismatches throw here, before any campaign
/// work starts.
std::vector<core::ScenarioSpec> resolve_checked(const SweepSpec& spec) {
  CSMABW_REQUIRE(!spec.scenarios.empty(), "scenarios axis is empty");
  CSMABW_REQUIRE(!spec.train_lengths.empty(), "train_lengths axis is empty");
  CSMABW_REQUIRE(!spec.probe_mbps.empty(), "probe_mbps axis is empty");
  CSMABW_REQUIRE(spec.repetitions >= 1, "repetitions must be >= 1");
  for (int n : spec.train_lengths) {
    CSMABW_REQUIRE(n >= 2, "train lengths must be >= 2");
  }
  for (double r : spec.probe_mbps) {
    CSMABW_REQUIRE(r > 0.0, "probe rates must be positive");
  }
  for (const auto& method : spec.methods) {
    // Throws on unknown names, unknown option keys and malformed values.
    (void)core::MethodRegistry::global().create(method);
  }
  std::vector<core::ScenarioSpec> resolved;
  resolved.reserve(spec.scenarios.size());
  for (const auto& entry : spec.scenarios) {
    core::ScenarioSpec scenario =
        core::ScenarioRegistry::global().resolve(entry);
    if (!spec.topologies.empty()) {
      CSMABW_REQUIRE(scenario.topology == topo::kDefaultTopology,
                     "scenario `" + entry + "` sets its own topology; "
                     "the topologies axis replaces the scenario's "
                     "`topology=` field — set one or the other");
      const int stations = 1 + static_cast<int>(scenario.contenders.size());
      for (const auto& topology : spec.topologies) {
        // Grammar AND node-count validation: a grid:3x3 entry over a
        // 4-station scenario fails here, not mid-campaign.
        (void)topo::TopologyRegistry::global().build(topology, stations);
      }
    }
    resolved.push_back(std::move(scenario));
  }
  return resolved;
}

}  // namespace

void SweepSpec::validate() const { (void)resolve_checked(*this); }

std::int64_t SweepSpec::grid_size() const {
  return static_cast<std::int64_t>(scenarios.size()) *
         static_cast<std::int64_t>(topologies.empty() ? 1
                                                      : topologies.size()) *
         static_cast<std::int64_t>(train_lengths.size()) *
         static_cast<std::int64_t>(probe_mbps.size()) *
         static_cast<std::int64_t>(methods.empty() ? 1 : methods.size());
}

Campaign::Campaign(SweepSpec spec) : spec_(std::move(spec)) {
  std::vector<core::ScenarioSpec> scenarios = resolve_checked(spec_);
  // An absent topologies/methods axis is one pass-through entry: cells
  // keep the scenario's own topology and label, and an empty method.
  const std::vector<std::string> topology_axis =
      spec_.topologies.empty() ? std::vector<std::string>{std::string()}
                               : spec_.topologies;
  const std::vector<std::string> method_axis =
      spec_.methods.empty() ? std::vector<std::string>{std::string()}
                            : spec_.methods;
  cells_.reserve(static_cast<std::size_t>(spec_.grid_size()));

  for (core::ScenarioSpec& scenario : scenarios) {
    // NaN when a saturated contender offers unbounded load.
    const std::optional<BitRate> load = scenario.offered_load();
    const double cross_mbps = load.has_value()
                                  ? load->to_mbps()
                                  : std::numeric_limits<double>::quiet_NaN();
    for (const std::string& topology : topology_axis) {
      if (!topology.empty()) {
        scenario.topology =
            topo::TopologyRegistry::global().canonical(topology);
      }
      // Topology-axis cells are labelled with the full grammar string
      // (topology included): (scenario, topology) stays a distinct
      // coordinate without growing the collector's column set.
      const std::string label =
          topology.empty() ? scenario.label() : scenario.describe();
      const core::ScenarioConfig config = scenario.to_config(/*seed=*/0);
      for (int train_length : spec_.train_lengths) {
        for (double probe : spec_.probe_mbps) {
          for (const std::string& method : method_axis) {
            Cell cell;
            cell.index = static_cast<int>(cells_.size());
            cell.scenario_name = label;
            cell.contenders = static_cast<int>(scenario.contenders.size());
            cell.cross_mbps = cross_mbps;
            cell.phy_preset = scenario.phy_preset;
            cell.train_length = train_length;
            cell.probe_mbps = probe;
            cell.fifo = scenario.fifo.has_value();
            cell.method = method;
            cell.repetitions = spec_.repetitions;
            cell.scenario = config;
            cell.scenario.seed = cell_seed(spec_.campaign_seed, cell.index);
            cell.train.n = train_length;
            cell.train.size_bytes = kProbeSizeBytes;
            cell.train.gap = BitRate::mbps(probe).gap_for(kProbeSizeBytes);
            cells_.push_back(std::move(cell));
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
