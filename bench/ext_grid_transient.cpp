// Extension: transient CSMA/CA access delays beyond the single
// collision domain.  The paper's fig 10 methodology (KS distance of the
// first packets vs the steady pool, transient length at tolerance 0.1)
// re-run on conflict-graph topologies at a fixed offered load:
//
//   - clique of 9 (8 contenders + probe): the paper's geometry,
//   - grid:3x3 at the same load: straight-line distance-2 pairs are
//     hidden terminals, opposite corners reuse the channel,
//   - clique of 2 vs pairs-hidden:2: the textbook hidden pair.
//
// Hidden contention converts temporal overlap into retransmission, so
// the hidden-terminal cells inflate both the mean access delay at every
// train position and the measured transient duration relative to their
// clique twins — transients an active bandwidth probe must outwait
// become *longer* once the cell stops being one collision domain.
//
// One engine campaign: every (cell, repetition) runs across --threads
// workers, seeded from (campaign seed, cell index, repetition) alone,
// so stdout is byte-identical for any thread count.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/scenario.hpp"
#include "exp/engine.hpp"

using namespace csmabw;

namespace {

void run(bench::Bench& b, const util::Args& args) {
  const int reps = args.get("reps", util::scaled_reps(120));
  const int train = args.get("train", 120);
  const double probe_mbps = args.get("probe-mbps", 5.0);
  // Per-contender Poisson rates keeping both groups comfortably below
  // saturation on a clique, so delay inflation is attributable to the
  // topology and not to queue blow-up.
  const std::string grid_rate = args.get("grid-rate", std::string("200k"));
  const std::string pair_rate = args.get("pair-rate", std::string("1M"));

  b.announce(
      "Extension: transients on conflict-graph topologies",
      "per-position mean access delay and KS transient duration, "
      "clique vs grid:3x3 vs pairs-hidden:2 at fixed load",
      std::to_string(reps) + " repetitions x " + std::to_string(train) +
          "-packet trains; probe " + util::Table::format(probe_mbps) +
          " Mb/s; contender Poisson " + grid_rate + " (9-station group) / " +
          pair_rate + " (2-station group)");

  exp::SweepSpec spec;
  spec.campaign_seed = static_cast<std::uint64_t>(args.get("seed", 601));
  spec.scenarios = {
      // The 9-station group: one collision domain vs the 3x3 lattice.
      "contenders=8x poisson:rate=" + grid_rate,
      "topology=grid:3x3;contenders=8x poisson:rate=" + grid_rate,
      // The 2-station group: clique pair vs the textbook hidden pair.
      "contenders=1x poisson:rate=" + pair_rate,
      "topology=pairs-hidden:2;contenders=1x poisson:rate=" + pair_rate,
  };
  spec.train_lengths = {train};
  spec.probe_mbps = {probe_mbps};
  spec.repetitions = reps;
  const exp::Campaign campaign(spec);

  exp::TrainCampaignConfig tcfg;
  tcfg.ks_prefix = 1;  // KS of the first packet vs the steady pool
  const auto results = b.run(campaign, tcfg);

  // The satellite view after the per-cell table: mean access delay by
  // train position, one column per cell — the transient's shape, not
  // just its length.
  bench::transient_tables(
      b, campaign, results, "cell", {0, 1, 2, 3},
      {"position", "clique9_ms", "grid3x3_ms", "clique2_ms", "hidden2_ms"},
      {0, 1, 2, 3, 5, 8, 12, 20, 40, train - 1});

  const double grid_vs_clique = results[1].analyzer.steady_mean() /
                                results[0].analyzer.steady_mean();
  const double hidden_vs_clique = results[3].analyzer.steady_mean() /
                                  results[2].analyzer.steady_mean();
  std::cout << "# steady access-delay inflation: grid:3x3 / clique9 = "
            << util::Table::format(grid_vs_clique, 2)
            << "x, pairs-hidden:2 / clique2 = "
            << util::Table::format(hidden_vs_clique, 2) << "x\n";
  std::cout << "# expect: both ratios > 1 and longer/taller transients in "
               "the hidden-terminal cells — carrier sense no longer "
               "serializes the cell, overlap becomes retransmission\n";
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("ext_grid_transient", run, argc, argv, "reps", "train",
                     "probe-mbps", "grid-rate", "pair-rate", "seed");
}
