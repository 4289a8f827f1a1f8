// Figure 8: (top) per-packet-index KS statistic of the access-delay
// distribution against the steady-state distribution, with the 95%
// rejection threshold; (bottom) mean queue size of the contending node
// sampled at probe arrivals.  The transient ends when the contending
// queue reaches its stationary size.  Paper setup: probe 8 Mb/s,
// contending cross-traffic 2 Mb/s.
//
// Runs as a single-cell campaign on the exp:: engine (--threads N).
#include <iostream>

#include "bench_common.hpp"
#include "exp/engine.hpp"

using namespace csmabw;

namespace {

void run(bench::Bench& b, const util::Args& args) {
  const int reps = args.get("reps", util::scaled_reps(1200));
  const int train = args.get("train", 600);
  const int show = bench::train_index_flag(args, "show", 100, 0, train);
  const double cross_mbps = args.get("cross-mbps", 2.0);
  const double probe_mbps = args.get("probe-mbps", 8.0);

  exp::SweepSpec spec;
  spec.campaign_seed = static_cast<std::uint64_t>(args.get("seed", 8));
  spec.scenarios = {bench::poisson_scenario(cross_mbps)};
  spec.train_lengths = {train};
  spec.probe_mbps = {probe_mbps};
  spec.repetitions = reps;
  const exp::Campaign campaign(spec);

  b.announce("Figure 8", "KS transient detection + contending queue build-up",
             "probe " + util::Table::format(probe_mbps) +
                 " Mb/s, contender Poisson " +
                 util::Table::format(cross_mbps) + " Mb/s, trains of " +
                 std::to_string(train) + ", " + std::to_string(reps) +
                 " repetitions");

  exp::TrainCampaignConfig tcfg;
  tcfg.ks_prefix = show;
  tcfg.sample_contender_queue = true;
  tcfg.queue_prefix = show;
  const auto cells = b.run(campaign, tcfg);
  const exp::TrainCellStats& cell = cells.front();
  const std::vector<double> ks = cell.analyzer.ks_curve();

  b.columns({"packet", "ks_value", "ks_threshold_95", "mean_contender_queue"});
  for (int i = 0; i < show; ++i) {
    const auto k = static_cast<std::size_t>(i);
    b.row({static_cast<double>(i + 1), ks[k],
           cell.analyzer.ks_threshold_at(i),
           cell.queue_at_arrival[k].mean()});
  }
  b.emit();

  // Where does the KS statistic first dip under the 95% line?
  int settle = show;
  for (int i = 0; i < show; ++i) {
    if (ks[static_cast<std::size_t>(i)] <= cell.analyzer.ks_threshold_at(i)) {
      settle = i + 1;
      break;
    }
  }
  std::cout << "# KS statistic first under the 95% threshold at packet "
            << settle << " (paper: ~10 for this scenario)\n";
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("fig08_ks_transient_queue", run, argc, argv, "reps",
                     "train", "show", "seed", "cross-mbps", "probe-mbps");
}
