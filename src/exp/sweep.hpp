#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "traffic/probe_train.hpp"

namespace csmabw::exp {

/// Declarative parameter grid of a campaign.
///
/// Every axis is a list of values; the campaign is the full cartesian
/// product, expanded in a fixed documented order so that cell indices —
/// and therefore per-cell seeds and collector output — are stable across
/// runs, machines and thread counts.
struct SweepSpec {
  /// Scenario axis (outermost): each entry is a registered scenario name
  /// or an inline grammar string (core::ScenarioSpec /
  /// core::ScenarioRegistry) and fixes the cell's PHY, contending
  /// stations and FIFO cross-traffic.  The paper's cell at another load
  /// is `contenders=poisson:rate=4M`, N such stations
  /// `contenders=Nx poisson:rate=4M`, and its Fig 3 variant adds
  /// `;fifo=poisson:rate=1M`.  The default is the one paper_fig2 cell:
  /// assign the list, or clear it before appending entries.
  std::vector<std::string> scenarios{"paper_fig2"};
  /// Conflict-graph topology axis (topo::TopologyRegistry specs such as
  /// `clique`, `grid:3x3`, `pairs-hidden:2`): each scenario entry is
  /// expanded once per topology, and every scenario entry must leave its
  /// own `topology=` field at the default, so the axis is the single
  /// source of truth.  Cells on this axis are labelled with the full
  /// scenario grammar including the topology, keeping (scenario,
  /// topology) coordinates distinct without a new collector column.
  /// Node counts are validated against each scenario's station count
  /// before any campaign work starts.
  std::vector<std::string> topologies{};
  /// Probe-train length in packets (1500-byte packets).
  std::vector<int> train_lengths{600};
  /// Probe input rate in Mb/s (sets the train's input gap g_I).
  std::vector<double> probe_mbps{5.0};
  /// Measurement-method specs ("slops:train_length=50", see
  /// core::MethodRegistry::global()), making tool-vs-tool comparison a
  /// sweep dimension.  Empty (the default) means the campaign has no
  /// method axis — the classic probe-train ensemble of
  /// run_train_campaign.
  std::vector<std::string> methods{};

  /// Independent probing-train repetitions per cell.
  int repetitions = 100;
  std::uint64_t campaign_seed = 1;

  /// When non-empty, run_train_campaign records every (cell, repetition)
  /// as a binary event trace under this directory (created if missing),
  /// named `cell-CCCCC-rep-RRRRRR.cctrace` — see trace::train_trace_path.
  /// Recording is observational: results are bit-identical either way.
  std::string trace_dir{};

  /// Throws util::PreconditionError on an empty or inconsistent grid.
  void validate() const;
  [[nodiscard]] std::int64_t grid_size() const;
};

/// One expanded grid point: the coordinates it came from plus the fully
/// built scenario and train spec ready to run.
struct Cell {
  int index = 0;
  /// Scenario-axis label (the spec's name, else its grammar string);
  /// empty only for hand-built cells without one.
  std::string scenario_name;
  int contenders = 0;
  /// Total mean offered load of the contenders in Mb/s (NaN when a
  /// contender is saturated, i.e. offers unbounded load).
  double cross_mbps = 0.0;
  std::string phy_preset;
  int train_length = 0;
  double probe_mbps = 0.0;
  bool fifo = false;
  /// Measurement-method spec; empty when the campaign has no method axis.
  std::string method;
  int repetitions = 0;
  core::ScenarioConfig scenario;
  traffic::TrainSpec train;
};

/// An expanded sweep: a flat, immutable work list of cells.
///
/// Cell i's scenario seed is `campaign_seed + i`; per-repetition
/// independence comes from `Rng::fork(repetition)` inside
/// core::Scenario, so the stream of any (cell, repetition) pair depends
/// only on (campaign_seed, cell index, repetition) — never on worker
/// scheduling.  A single-cell campaign reproduces the legacy serial
/// bench binaries' streams exactly.
class Campaign {
 public:
  /// Validates and expands the grid; order: scenario (outermost) >
  /// topology (when the topologies axis is non-empty) > train length >
  /// probe rate > method (innermost; only present when the methods axis
  /// is non-empty).
  explicit Campaign(SweepSpec spec);

  /// Builds a campaign from explicitly constructed cells (for sweeps
  /// that do not fit a cartesian grid, e.g. load-indexed sweeps).
  /// Re-indexes the cells and derives each cell's scenario seed.
  Campaign(std::vector<Cell> cells, std::uint64_t campaign_seed);

  /// The grid this campaign was expanded from.  Only meaningful for
  /// grid campaigns; throws for campaigns built from explicit cells
  /// (whose cells are the sole source of truth).
  [[nodiscard]] const SweepSpec& spec() const;
  [[nodiscard]] std::uint64_t campaign_seed() const {
    return spec_.campaign_seed;
  }
  /// Trace output directory ("" = recording disabled), copied from the
  /// grid spec; campaigns built from explicit cells never record.
  [[nodiscard]] const std::string& trace_dir() const {
    return spec_.trace_dir;
  }
  [[nodiscard]] const std::vector<Cell>& cells() const { return cells_; }
  [[nodiscard]] int size() const { return static_cast<int>(cells_.size()); }
  [[nodiscard]] std::int64_t total_repetitions() const;

  [[nodiscard]] static std::uint64_t cell_seed(std::uint64_t campaign_seed,
                                               int cell_index) {
    return campaign_seed + static_cast<std::uint64_t>(cell_index);
  }

 private:
  SweepSpec spec_;
  std::vector<Cell> cells_;
  bool custom_cells_ = false;
};

/// Splits a '|'-separated scenario list ("paper_fig2|name=het;..." —
/// scenario grammars use ';' and ',' internally, so the axis separator
/// is '|').  Empty elements throw util::PreconditionError.
[[nodiscard]] std::vector<std::string> split_scenario_list(
    std::string_view text);

}  // namespace csmabw::exp
