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

void run(bench::Bench& b, const util::Args& args) {
  const int reps = args.get("reps", util::scaled_reps(2));
  const int train = args.get("train", 40);
  const double probe_mbps = args.get("probe-mbps", 1.0);
  // Fixed per-station Poisson load, far below a neighborhood's share of
  // the channel — contention comes from the geometry, not saturation.
  const std::string rate = args.get("rate", std::string("50k"));
  // Lattice sides to sweep; the largest defaults to the 10k-station
  // cell of the issue (--side=32 makes a quick CI determinism check).
  const int side = bench::count_flag(args, "side", 100, 2);

  std::vector<int> sides{3, 32};
  if (side > 32) {
    sides.push_back(side);
  } else if (side != 3 && side != 32) {
    sides = {3, side};
  }

  b.announce(
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
  std::vector<double> keys;
  std::vector<std::string> columns{"position"};
  for (int s : sides) {
    const std::string lattice = std::to_string(s) + "x" + std::to_string(s);
    spec.scenarios.push_back("topology=grid:" + lattice + ";contenders=" +
                             std::to_string(s * s - 1) +
                             "x poisson:rate=" + rate);
    keys.push_back(static_cast<double>(s));
    columns.push_back("grid" + lattice + "_ms");
  }
  spec.train_lengths = {train};
  spec.probe_mbps = {probe_mbps};
  spec.repetitions = reps;
  const exp::Campaign campaign(spec);

  bench::ObsState obs(args, "ext_lattice_delay");

  exp::TrainCampaignConfig tcfg;
  tcfg.ks_prefix = 1;  // KS of the first packet vs the steady pool
  serve::CampaignServeOptions io;
  io.metrics = obs.metrics();
  io.profiler = obs.profiler();
  const auto results = b.run(campaign, tcfg, io);

  // After the per-side table, the transient's shape: mean access delay
  // by train position, one column per lattice side.
  bench::transient_tables(b, campaign, results, "side", keys,
                          std::move(columns),
                          {0, 1, 2, 3, 5, 8, 12, 20, train - 1});

  std::vector<obs::CellObs> cell_obs;
  cell_obs.reserve(results.size());
  for (const exp::TrainCellStats& r : results) {
    cell_obs.push_back(r.obs);
  }
  obs.finish(cell_obs, b.threads());

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
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("ext_lattice_delay", run, argc, argv, "reps", "train",
                     "probe-mbps", "rate", "side", "seed", "metrics-out",
                     "prof", "obs");
}
