// Figure 7: histogram of the access delay seen by the 1st and the 500th
// probe packet.  The two distributions differ visibly: the first packet
// often finds an idle system (short, concentrated delays) while the
// 500th sees the steady-state interaction with the contending queue.
//
// Runs as a single-cell campaign on the exp:: engine; sparse raw-sample
// retention keeps the ensemble distributions of exactly the two indices
// the histograms need.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "exp/engine.hpp"
#include "stats/histogram.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"reps", "train", "late-index", "bins", "seed",
                      "cross-mbps", "probe-mbps", "csv", "threads",
                      "progress"});
  const int reps = args.get("reps", util::scaled_reps(2000));
  const int train = args.get("train", 600);
  const int late_index = args.get("late-index", 500);
  const int bins = args.get("bins", 24);

  exp::SweepSpec spec;
  spec.campaign_seed = static_cast<std::uint64_t>(args.get("seed", 7));
  spec.scenarios = {bench::poisson_scenario(args.get("cross-mbps", 4.0))};
  spec.train_lengths = {train};
  spec.probe_mbps = {args.get("probe-mbps", 5.0)};
  spec.repetitions = reps;
  const exp::Campaign campaign(spec);

  bench::announce("Figure 7",
                  "access-delay histograms of the 1st and " +
                      std::to_string(late_index) + "th probe packet",
                  "probe 5 Mb/s, contender Poisson 4 Mb/s, " +
                      std::to_string(reps) + " repetitions");

  const int late = std::min(late_index - 1, train - 1);
  exp::TrainCampaignConfig tcfg;
  tcfg.ks_prefix = 1;           // raw samples of packet 1 ...
  tcfg.raw_indices = {late};    // ... plus just the late index
  exp::Progress progress(campaign.total_repetitions(), "fig07",
                         bench::progress_enabled(args));
  const exp::Runner runner = bench::runner_from(args, &progress);
  const auto cells = exp::run_train_campaign(campaign, tcfg, runner);
  progress.finish();
  const exp::TrainCellStats& cell = cells.front();

  stats::Histogram first(0.0, 12e-3, bins);
  stats::Histogram late_hist(0.0, 12e-3, bins);
  for (double d : cell.analyzer.sample_at(0)) {
    first.add(d);
  }
  for (double d : cell.analyzer.sample_at(late)) {
    late_hist.add(d);
  }

  util::Table table({"delay_ms", "freq_packet_1", "freq_packet_late"});
  std::vector<std::vector<double>> rows;
  for (int b = 0; b < first.bins(); ++b) {
    rows.push_back({first.bin_center(b) * 1e3, first.frequency(b),
                    late_hist.frequency(b)});
    table.add_row(rows.back());
  }
  bench::emit(table, args, rows);
  std::cout << "# mode shift: packet 1 at "
            << util::Table::format(first.mode() * 1e3, 3)
            << " ms vs packet " << late_index << " at "
            << util::Table::format(late_hist.mode() * 1e3, 3) << " ms\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("fig07_delay_histograms", run, argc, argv);
}
