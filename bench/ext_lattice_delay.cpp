// Extension: transient access delays on large regular lattices — the
// paper's fig 10 methodology (per-position mean access delay, KS
// distance of the first packets vs the steady pool) pushed from the
// 9-station grid of ext_grid_transient to 1k- and 10k-station meshes.
//
// On large grids the delay dynamics are governed by torpid mixing
// ("Delay performance in random-access grid networks"): spatial reuse
// lets far-apart regions transmit concurrently, but hidden-terminal
// chains couple neighborhoods, and the relaxation toward the steady
// delay distribution slows down as the lattice grows.  The sweep holds
// the *per-station* offered load fixed and scales the lattice side, so
// any delay blow-up is attributable to the geometry alone.
//
// One engine campaign through the standard campaign/trace/obs stack:
// every (cell, repetition) is seeded from (campaign seed, cell index,
// repetition) alone, so stdout is byte-identical for any --threads.
// --metrics-out additionally captures the sparse medium's hot-path
// counters (topo.medium.updates / neighborhood_sweeps / fire_rearms).
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/scenario.hpp"
#include "exp/engine.hpp"
#include "serve/campaign_io.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"reps", "train", "probe-mbps", "rate", "side", "seed",
                      "csv", "threads", "progress", "metrics-out", "prof",
                      "obs"});
  const int reps = args.get("reps", util::scaled_reps(2));
  const int train = args.get("train", 40);
  const double probe_mbps = args.get("probe-mbps", 1.0);
  // Fixed per-station Poisson load, far below a neighborhood's share of
  // the channel — contention comes from the geometry, not saturation.
  const std::string rate = args.get("rate", std::string("50k"));
  // Lattice sides to sweep; the largest defaults to the 10k-station
  // cell of the issue (--side=32 makes a quick CI determinism check).
  const int side = args.get("side", 100);

  std::vector<int> sides{3, 32};
  if (side > 32) {
    sides.push_back(side);
  } else if (side != 3 && side != 32) {
    sides = {3, side};
  }

  bench::announce(
      "Extension: access-delay transients on 1k-10k-station lattices",
      "per-position mean access delay, KS transient duration and probe "
      "rate vs lattice side at fixed per-station load",
      std::to_string(reps) + " repetitions x " + std::to_string(train) +
          "-packet trains; probe " + util::Table::format(probe_mbps) +
          " Mb/s at the lattice corner; contender Poisson " + rate +
          " per station");

  exp::SweepSpec spec;
  spec.campaign_seed = static_cast<std::uint64_t>(args.get("seed", 1009));
  spec.scenarios.clear();
  for (int s : sides) {
    const int stations = s * s;
    spec.scenarios.push_back("topology=grid:" + std::to_string(s) + "x" +
                             std::to_string(s) + ";contenders=" +
                             std::to_string(stations - 1) +
                             "x poisson:rate=" + rate);
  }
  spec.train_lengths = {train};
  spec.probe_mbps = {probe_mbps};
  spec.repetitions = reps;
  const exp::Campaign campaign(spec);

  bench::ObsState obs(args, "ext_lattice_delay");

  exp::TrainCampaignConfig tcfg;
  tcfg.ks_prefix = 1;  // KS of the first packet vs the steady pool
  exp::Progress progress(campaign.total_repetitions(),
                         "lattice-delay", bench::progress_enabled(args));
  const exp::Runner runner = bench::runner_from(args, &progress);
  std::cerr << "# threads: " << runner.threads() << "\n";
  serve::CampaignServeOptions io;
  io.metrics = obs.metrics();
  io.profiler = obs.profiler();
  const auto results = exp::run_train_campaign(campaign, tcfg, runner, io);
  progress.finish();

  for (const exp::Cell& cell : campaign.cells()) {
    std::cout << "# cell " << cell.index << ": " << cell.scenario_name
              << "\n";
  }

  util::Table table({"side", "stations", "reps_used", "dropped",
                     "first_delay_ms", "steady_delay_ms", "ks_first",
                     "transient_tol0.1", "rate_mbps"});
  std::vector<std::vector<double>> rows;
  for (const exp::Cell& cell : campaign.cells()) {
    const exp::TrainCellStats& r =
        results[static_cast<std::size_t>(cell.index)];
    const int s = sides[static_cast<std::size_t>(cell.index)];
    rows.push_back({static_cast<double>(s),
                    static_cast<double>(cell.contenders + 1),
                    static_cast<double>(r.used),
                    static_cast<double>(r.dropped),
                    r.analyzer.mean_at(0) * 1e3,
                    r.analyzer.steady_mean() * 1e3, r.analyzer.ks_at(0),
                    static_cast<double>(r.analyzer.transient_length(0.1)),
                    r.measured_rate_mbps(cell.train.size_bytes)});
    table.add_row(rows.back());
  }
  bench::emit(table, args, rows);

  // The transient's shape: mean access delay by train position, one
  // column per lattice side.
  std::vector<std::string> cols{"position"};
  for (int s : sides) {
    cols.push_back("grid" + std::to_string(s) + "x" + std::to_string(s) +
                   "_ms");
  }
  util::Table positions(cols);
  for (int k : {0, 1, 2, 3, 5, 8, 12, 20, train - 1}) {
    if (k >= train) {
      continue;
    }
    std::vector<double> row{static_cast<double>(k)};
    for (const auto& r : results) {
      row.push_back(r.analyzer.mean_at(k) * 1e3);
    }
    positions.add_row(row);
  }
  positions.print(std::cout);

  {
    std::vector<obs::CellObs> cell_obs;
    cell_obs.reserve(results.size());
    for (const exp::TrainCellStats& r : results) {
      cell_obs.push_back(r.obs);
    }
    obs.finish(cell_obs, runner.threads());
  }

  const double blowup = results.back().analyzer.steady_mean() /
                        results.front().analyzer.steady_mean();
  std::cout << "# steady access-delay inflation: grid" << sides.back() << "x"
            << sides.back() << " / grid" << sides.front() << "x"
            << sides.front() << " = " << util::Table::format(blowup, 2)
            << "x\n";
  std::cout << "# expect: the corner probe's transient stretches with the "
               "lattice side — hidden-terminal chains couple neighborhoods "
               "and the relaxation to the steady delay pool slows (torpid "
               "mixing)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("ext_lattice_delay", run, argc, argv);
}
