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

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"reps", "train", "show", "seed", "cross-mbps",
                      "probe-mbps", "csv", "threads", "progress"});
  const int reps = args.get("reps", util::scaled_reps(2000));
  const int train = args.get("train", 1000);
  const int show = args.get("show", 150);

  exp::SweepSpec spec;
  spec.campaign_seed = static_cast<std::uint64_t>(args.get("seed", 6));
  spec.scenarios = {bench::poisson_scenario(args.get("cross-mbps", 4.0))};
  spec.train_lengths = {train};
  spec.probe_mbps = {args.get("probe-mbps", 5.0)};
  spec.repetitions = reps;
  const exp::Campaign campaign(spec);

  bench::announce("Figure 6", "mean access delay vs probe packet number",
                  "probe 5 Mb/s, contender Poisson 4 Mb/s, trains of " +
                      std::to_string(train) + ", " + std::to_string(reps) +
                      " repetitions (paper: 25000)");

  exp::TrainCampaignConfig tcfg;
  tcfg.ks_prefix = 1;  // raw samples not needed here
  exp::Progress progress(campaign.total_repetitions(), "fig06",
                         bench::progress_enabled(args));
  const exp::Runner runner = bench::runner_from(args, &progress);
  const auto cells = exp::run_train_campaign(campaign, tcfg, runner);
  progress.finish();
  const exp::TrainCellStats& cell = cells.front();

  std::cout << "# repetitions used: " << cell.used << " (dropped "
            << cell.dropped << ")\n";
  std::cout << "# steady-state mean access delay: "
            << util::Table::format(cell.analyzer.steady_mean() * 1e3, 4)
            << " ms\n";

  util::Table table({"packet", "mean_access_delay_ms"});
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < show && i < train; ++i) {
    rows.push_back(
        {static_cast<double>(i + 1), cell.analyzer.mean_at(i) * 1e3});
    table.add_row(rows.back());
  }
  bench::emit(table, args, rows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("fig06_mean_access_delay", run, argc, argv);
}
