// Ablation (DESIGN.md section 5): how much of the access-delay transient
// is driven by the DIFS-only "immediate access" rule for packets that
// arrive at an idle station?  We repeat the Fig 6 experiment with the
// rule enabled (standard/NS2 behaviour) and disabled (every access draws
// a random backoff), and also toggle post-backoff.
//
// The three variants are the cells of one campaign on the exp:: engine
// (--threads N).
#include <iostream>

#include "bench_common.hpp"
#include "exp/engine.hpp"

using namespace csmabw;

namespace {

exp::Cell variant(bool immediate, bool post_backoff, int reps, int train) {
  exp::Cell cell;
  cell.repetitions = reps;
  cell.scenario.phy.immediate_access = immediate;
  cell.scenario.phy.post_backoff = post_backoff;
  cell.scenario.contenders.push_back(
      core::StationSpec::poisson(BitRate::mbps(4.0), 1500));
  cell.train.n = train;
  cell.train.size_bytes = 1500;
  cell.train.gap = BitRate::mbps(5.0).gap_for(1500);
  return cell;
}

void run(bench::Bench& b, const util::Args& args) {
  const int reps = args.get("reps", util::scaled_reps(800));
  const int train = args.get("train", 300);
  const int show = bench::train_index_flag(args, "show", 60, 0, train);

  b.announce("Ablation: immediate access & post-backoff",
             "normalized mean access delay by packet index",
             "Fig 6 scenario (probe 5 Mb/s, contender 4 Mb/s); value "
             "1.0 = steady state; " +
                 std::to_string(reps) + " repetitions per variant");

  // Cells 0..2 (standard, no immediate access, no post-backoff) run with
  // scenario seeds 201..203.
  const exp::Campaign campaign({variant(true, true, reps, train),
                                variant(false, true, reps, train),
                                variant(true, false, reps, train)},
                               201);
  exp::TrainCampaignConfig tcfg;
  tcfg.ks_prefix = 1;
  const auto cells = b.run(campaign, tcfg);

  b.columns({"packet", "standard", "no_immediate_access", "no_post_backoff"});
  for (int i = 0; i < show; ++i) {
    std::vector<double> row{static_cast<double>(i + 1)};
    for (const exp::TrainCellStats& cell : cells) {
      row.push_back(cell.analyzer.mean_at(i) / cell.analyzer.steady_mean());
    }
    b.row(std::move(row));
  }
  b.emit();
  std::cout << "# expect: the 'standard' column starts lowest (strongest "
               "first-packet acceleration)\n";
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("ablate_immediate_access", run, argc, argv, "reps",
                     "train", "show");
}
