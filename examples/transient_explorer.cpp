// transient_explorer: characterize the access-delay transient of a
// configurable CSMA/CA scenario and derive practical probing advice.
//
//   $ ./transient_explorer --probe-mbps 5 --cross-mbps 4 --reps 800
//
// Runs the Section 4 ensemble methodology: repeats a probing sequence,
// reports the per-index mean access delay and KS statistic, the
// tolerance-based transient length (the paper's Fig 10 metric), and the
// MSER-2 truncation point — i.e. how many leading probes a measurement
// tool should discard in this scenario.
#include <iostream>

#include "core/mser_correction.hpp"
#include "core/scenario.hpp"
#include "core/transient.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"seed", "cross-mbps", "train", "reps", "size",
                      "probe-mbps", "show"});

  core::ScenarioConfig cell;
  cell.seed = static_cast<std::uint64_t>(args.get("seed", 5));
  cell.contenders.push_back(core::StationSpec::poisson(
      BitRate::mbps(args.get("cross-mbps", 4.0)), 1500));

  const int train = args.get("train", 400);
  const int reps = args.get("reps", 800);
  traffic::TrainSpec spec;
  spec.n = train;
  spec.size_bytes = args.get("size", 1500);
  spec.gap =
      BitRate::mbps(args.get("probe-mbps", 5.0)).gap_for(spec.size_bytes);

  core::Scenario sc(cell);
  core::TransientConfig tc;
  tc.train_length = train;
  tc.ks_prefix = args.get("show", 40);
  tc.steady_tail = train / 2;
  core::TransientAnalyzer ta(tc);
  core::EnsembleGapCorrector corrector(train);

  std::cout << "running " << reps << " repetitions of a " << train
            << "-packet train at " << args.get("probe-mbps", 5.0)
            << " Mb/s...\n";
  for (int rep = 0; rep < reps; ++rep) {
    const core::TrainRun run =
        sc.run_train(spec, static_cast<std::uint64_t>(rep));
    if (run.any_dropped) {
      continue;
    }
    ta.add_repetition(run.access_delays_s());
    std::vector<double> recv;
    for (const auto& p : run.packets) {
      recv.push_back(p.depart_time.to_seconds());
    }
    corrector.add_train(recv);
  }

  const std::vector<double> ks = ta.ks_curve();
  util::Table table({"packet", "mean_delay_ms", "vs_steady", "ks", "ks_95"});
  for (int i = 0; i < tc.ks_prefix; ++i) {
    table.add_row({static_cast<double>(i + 1), ta.mean_at(i) * 1e3,
                   ta.mean_at(i) / ta.steady_mean(),
                   ks[static_cast<std::size_t>(i)], ta.ks_threshold_at(i)});
  }
  table.print(std::cout);

  std::cout << "\nsteady-state mean access delay: "
            << util::Table::format(ta.steady_mean() * 1e3, 4) << " ms\n";
  std::cout << "transient length @ tolerance 0.10: "
            << ta.transient_length(0.1) << " packets\n";
  std::cout << "transient length @ tolerance 0.01: "
            << ta.transient_length(0.01) << " packets\n";
  const core::CorrectedGap g = corrector.corrected(2);
  std::cout << "MSER-2 would truncate the first " << g.truncated
            << " inter-arrival gaps\n";
  std::cout << "advice: discard the first "
            << std::max(ta.transient_length(0.1), g.truncated)
            << " probes (or send that many extra) in this scenario\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("example_transient_explorer", run, argc, argv);
}
