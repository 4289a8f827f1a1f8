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

void run(bench::Bench& b, const util::Args& args) {
  const int reps = args.get("reps", util::scaled_reps(500));
  const int train = args.get("train", 400);
  const double probe_load = args.get("probe-erlang", 1.0);

  const mac::PhyParams phy = mac::PhyParams::dot11b_short();
  b.announce(
      "Figure 10", "transient duration vs offered cross-traffic load",
      "probe offered load " + util::Table::format(probe_load) +
          " Erlang; cross load swept 0.05..1.0; tolerances 0.1 / 0.01; " +
          std::to_string(reps) + " repetitions per load");

  const std::vector<double> loads = bench::grid(0.05, 1.0, 0.05);
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
  const auto cells = b.run(campaign, tcfg);

  b.columns({"cross_load_erlang", "transient_tol_0.1", "transient_tol_0.01"});
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const core::TransientAnalyzer& ta = cells[i].analyzer;
    b.row({loads[i], static_cast<double>(ta.transient_length(0.1)),
           static_cast<double>(ta.transient_length(0.01))});
  }
  b.emit();
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("fig10_transient_duration", run, argc, argv, "reps",
                     "train", "probe-erlang", "seed");
}
