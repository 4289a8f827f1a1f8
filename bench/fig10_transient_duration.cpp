// Figure 10: estimated duration of the transitory (in packets) vs the
// offered cross-traffic load in Erlangs, at tolerances 0.1 and 0.01, for
// an offered probing load of 1 Erlang.  The transient peaks when the
// cross-traffic offers its fair share and, at 0.1 tolerance, stays well
// under 150 packets everywhere (Section 4.1).
//
// One engine campaign: each offered load is a cell, all cells and their
// repetition shards run across the worker pool (--threads N).
#include <iostream>

#include "bench_common.hpp"
#include "exp/engine.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"reps", "train", "probe-erlang", "seed", "csv", "threads",
                      "progress"});
  const int reps = args.get("reps", util::scaled_reps(500));
  const int train = args.get("train", 400);
  const double probe_load = args.get("probe-erlang", 1.0);

  const mac::PhyParams phy = mac::PhyParams::dot11b_short();
  bench::announce(
      "Figure 10", "transient duration vs offered cross-traffic load",
      "probe offered load " + util::Table::format(probe_load) +
          " Erlang; cross load swept 0.05..1.0; tolerances 0.1 / 0.01; " +
          std::to_string(reps) + " repetitions per load");

  std::vector<double> loads;
  for (double load = 0.05; load <= 1.0 + 1e-9; load += 0.05) {
    loads.push_back(load);
  }

  exp::SweepSpec spec;
  spec.campaign_seed = static_cast<std::uint64_t>(args.get("seed", 10));
  spec.scenarios.clear();
  for (double load : loads) {
    spec.scenarios.push_back(
        bench::poisson_scenario(phy.rate_for_load(load, 1500).to_mbps()));
  }
  spec.train_lengths = {train};
  spec.probe_mbps = {phy.rate_for_load(probe_load, 1500).to_mbps()};
  spec.repetitions = reps;
  const exp::Campaign campaign(spec);

  exp::TrainCampaignConfig tcfg;
  tcfg.ks_prefix = 1;
  exp::Progress progress(campaign.total_repetitions(), "fig10",
                         bench::progress_enabled(args));
  const exp::Runner runner = bench::runner_from(args, &progress);
  const auto cells = exp::run_train_campaign(campaign, tcfg, runner);
  progress.finish();

  util::Table table(
      {"cross_load_erlang", "transient_tol_0.1", "transient_tol_0.01"});
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const exp::TrainCellStats& cell = cells[i];
    rows.push_back(
        {loads[i], static_cast<double>(cell.analyzer.transient_length(0.1)),
         static_cast<double>(cell.analyzer.transient_length(0.01))});
    table.add_row(rows.back());
  }
  bench::emit(table, args, rows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("fig10_transient_duration", run, argc, argv);
}
