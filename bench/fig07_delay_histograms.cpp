// Figure 7: histogram of the access delay seen by the 1st and the 500th
// probe packet.  The two distributions differ visibly: the first packet
// often finds an idle system (short, concentrated delays) while the
// 500th sees the steady-state interaction with the contending queue.
//
// Runs as a single-cell campaign on the exp:: engine; sparse raw-sample
// retention keeps the ensemble distributions of exactly the two indices
// the histograms need.
#include <iostream>

#include "bench_common.hpp"
#include "exp/engine.hpp"
#include "stats/histogram.hpp"

using namespace csmabw;

namespace {

void run(bench::Bench& b, const util::Args& args) {
  const int reps = args.get("reps", util::scaled_reps(2000));
  const int train = args.get("train", 600);
  const int late_index =
      bench::train_index_flag(args, "late-index", 500, 1, train);
  const int bins = args.get("bins", 24);
  const double cross_mbps = args.get("cross-mbps", 4.0);
  const double probe_mbps = args.get("probe-mbps", 5.0);

  exp::SweepSpec spec;
  spec.campaign_seed = static_cast<std::uint64_t>(args.get("seed", 7));
  spec.scenarios = {bench::poisson_scenario(cross_mbps)};
  spec.train_lengths = {train};
  spec.probe_mbps = {probe_mbps};
  spec.repetitions = reps;
  const exp::Campaign campaign(spec);

  b.announce("Figure 7",
             "access-delay histograms of the 1st and " +
                 std::to_string(late_index) + "th probe packet",
             "probe " + util::Table::format(probe_mbps) +
                 " Mb/s, contender Poisson " +
                 util::Table::format(cross_mbps) + " Mb/s, " +
                 std::to_string(reps) + " repetitions");

  const int late = late_index - 1;
  exp::TrainCampaignConfig tcfg;
  tcfg.ks_prefix = 1;           // raw samples of packet 1 ...
  tcfg.raw_indices = {late};    // ... plus just the late index
  const auto cells = b.run(campaign, tcfg);
  const exp::TrainCellStats& cell = cells.front();

  stats::Histogram first(0.0, 12e-3, bins);
  stats::Histogram late_hist(0.0, 12e-3, bins);
  for (double d : cell.analyzer.sample_at(0)) {
    first.add(d);
  }
  for (double d : cell.analyzer.sample_at(late)) {
    late_hist.add(d);
  }

  b.columns({"delay_ms", "freq_packet_1", "freq_packet_late"});
  for (int i = 0; i < first.bins(); ++i) {
    b.row({first.bin_center(i) * 1e3, first.frequency(i),
           late_hist.frequency(i)});
  }
  b.emit();
  std::cout << "# mode shift: packet 1 at "
            << util::Table::format(first.mode() * 1e3, 3)
            << " ms vs packet " << late_index << " at "
            << util::Table::format(late_hist.mode() * 1e3, 3) << " ms\n";
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("fig07_delay_histograms", run, argc, argv, "reps",
                     "train", "late-index", "bins", "seed", "cross-mbps",
                     "probe-mbps");
}
