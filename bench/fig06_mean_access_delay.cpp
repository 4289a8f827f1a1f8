// Figure 6: mean access delay vs. probe packet number.  The first
// packets of the probing sequence observe a lower access delay than the
// steady state — the transient regime (Section 4).  Paper setup: NS2,
// 1000-packet trains at 5 Mb/s, 4 Mb/s Poisson contending cross-traffic,
// 25000 repetitions (we default to a laptop-scale ensemble; raise
// CSMABW_BENCH_SCALE or --reps).
//
// Runs as a single-cell campaign on the exp:: engine: --threads N
// parallelizes the ensemble with output identical to a serial run.
#include <iostream>

#include "bench_common.hpp"
#include "exp/engine.hpp"

using namespace csmabw;

namespace {

void run(bench::Bench& b, const util::Args& args) {
  const int reps = args.get("reps", util::scaled_reps(2000));
  const int train = args.get("train", 1000);
  const int show = args.get("show", 150);
  const double cross_mbps = args.get("cross-mbps", 4.0);
  const double probe_mbps = args.get("probe-mbps", 5.0);

  exp::SweepSpec spec;
  spec.campaign_seed = static_cast<std::uint64_t>(args.get("seed", 6));
  spec.scenarios = {bench::poisson_scenario(cross_mbps)};
  spec.train_lengths = {train};
  spec.probe_mbps = {probe_mbps};
  spec.repetitions = reps;
  const exp::Campaign campaign(spec);

  b.announce("Figure 6", "mean access delay vs probe packet number",
             "probe " + util::Table::format(probe_mbps) +
                 " Mb/s, contender Poisson " +
                 util::Table::format(cross_mbps) + " Mb/s, trains of " +
                 std::to_string(train) + ", " + std::to_string(reps) +
                 " repetitions (paper: 25000)");

  exp::TrainCampaignConfig tcfg;
  tcfg.ks_prefix = 1;  // raw samples not needed here
  const auto cells = b.run(campaign, tcfg);
  const exp::TrainCellStats& cell = cells.front();

  std::cout << "# repetitions used: " << cell.used << " (dropped "
            << cell.dropped << ")\n";
  std::cout << "# steady-state mean access delay: "
            << util::Table::format(cell.analyzer.steady_mean() * 1e3, 4)
            << " ms\n";

  b.columns({"packet", "mean_access_delay_ms"});
  for (int i = 0; i < show && i < train; ++i) {
    b.row({static_cast<double>(i + 1), cell.analyzer.mean_at(i) * 1e3});
  }
  b.emit();
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("fig06_mean_access_delay", run, argc, argv, "reps",
                     "train", "show", "seed", "cross-mbps", "probe-mbps");
}
