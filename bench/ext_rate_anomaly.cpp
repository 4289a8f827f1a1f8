// Extension: the 802.11 rate anomaly (Heusse et al. 2003) reproduced on
// our DCF, and its effect on bandwidth probing.  A slow (2 Mb/s) station
// contending with fast (11 Mb/s) ones drags everyone to roughly equal
// per-station throughput; a probing flow measuring the cell sees its
// achievable throughput collapse accordingly.
//
// Each (fast-station count) x (with/without laggard) cell is one
// heterogeneous-rate scenario spec ("Nx saturated + 1x saturated@2M")
// run through the campaign engine: cells execute across --threads
// workers, each seeded from (campaign seed, cell index) alone, so the
// table is byte-identical for any thread count.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/scenario.hpp"
#include "exp/engine.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"duration", "fast", "seed", "csv", "threads",
                      "progress"});
  const double seconds = args.get("duration", 8.0) * util::bench_scale() + 1.0;
  const std::vector<int> fast_counts = args.get_ints("fast", {1, 2, 3, 5});

  bench::announce("Extension: 802.11 rate anomaly",
                  "per-station saturation throughput with one 2 Mb/s "
                  "laggard in an 11 Mb/s cell",
                  "all stations saturated, 1500 B frames, one scenario "
                  "spec per cell");

  // Two cells per fast-station count: the homogeneous baseline and the
  // same cell plus one laggard at a 2 Mb/s PHY rate.
  std::vector<exp::Cell> cells;
  for (int n : fast_counts) {
    for (const bool with_slow : {false, true}) {
      const std::string grammar =
          "phy=dot11b_short;contenders=" + std::to_string(n) +
          "x saturated" + (with_slow ? " + 1x saturated@2M" : "");
      exp::Cell cell;
      const core::ScenarioSpec spec = core::ScenarioSpec::parse(grammar);
      cell.scenario_name = spec.describe();
      cell.contenders = static_cast<int>(spec.contenders.size());
      cell.phy_preset = spec.phy_preset;
      cell.scenario = spec.to_config(/*seed set by Campaign*/ 0);
      cell.repetitions = 1;
      cells.push_back(std::move(cell));
    }
  }
  const exp::Campaign campaign(
      std::move(cells),
      static_cast<std::uint64_t>(args.get("seed", 401)));

  exp::Progress progress(campaign.size(), "cells",
                         bench::progress_enabled(args));
  const exp::Runner runner = bench::runner_from(args, &progress);
  // stderr, not stdout: stdout must stay byte-identical across --threads.
  std::cerr << "# threads: " << runner.threads() << "\n";
  const auto results =
      exp::run_cells(campaign, runner, [&](const exp::Cell& cell) {
        const core::Scenario sc(cell.scenario);
        return sc.run_contention(TimeNs::from_seconds(seconds),
                                 TimeNs::sec(1));
      });
  progress.finish();

  util::Table table({"fast_stations", "fast_alone_mbps",
                     "fast_with_laggard_mbps", "laggard_mbps"});
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < fast_counts.size(); ++i) {
    const int n = fast_counts[i];
    const core::ContentionResult& alone = results[2 * i];
    const core::ContentionResult& mixed = results[2 * i + 1];
    const auto mean_fast = [n](const core::ContentionResult& r) {
      double total = 0.0;
      for (int k = 0; k < n; ++k) {
        total += r.per_contender[static_cast<std::size_t>(k)].to_mbps();
      }
      return total / n;
    };
    rows.push_back({static_cast<double>(n), mean_fast(alone),
                    mean_fast(mixed),
                    mixed.per_contender.back().to_mbps()});
    table.add_row(rows.back());
  }
  bench::emit(table, args, rows);
  std::cout << "# expect: fast_with_laggard ~= laggard (equal shares), far "
               "below fast_alone — the anomaly\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("ext_rate_anomaly", run, argc, argv);
}
