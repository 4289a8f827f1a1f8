// Figure 13: experimental rate response curves of short packet trains on
// a system WITHOUT FIFO cross-traffic, against the steady-state
// response.  Short trains (n = 3) overestimate the achievable throughput
// at high probing rates; longer trains converge to the steady curve
// (Section 6.2).
#include <iostream>

#include "bench_common.hpp"
#include "core/scenario.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"trains", "cross-mbps", "max-mbps", "seed", "csv",
                      "threads", "progress"});
  const int trains = args.get("trains", util::scaled_reps(200));
  const double cross_mbps = args.get("cross-mbps", 4.0);

  core::ScenarioConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", 13));
  cfg.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(cross_mbps), 1500));
  core::Scenario sc(cfg);

  bench::announce("Figure 13",
                  "rate response of short trains, no FIFO cross-traffic",
                  "contender Poisson " + util::Table::format(cross_mbps) +
                      " Mb/s; trains of 3/10/50, " + std::to_string(trains) +
                      " Poisson-spaced trains per rate");

  util::Table table({"input_mbps", "steady_state_mbps", "train3_mbps",
                     "train10_mbps", "train50_mbps"});
  std::vector<std::vector<double>> rows;
  for (double ri = 0.5; ri <= args.get("max-mbps", 10.0) + 1e-9; ri += 0.5) {
    std::vector<double> row{ri};
    const auto steady = sc.run_steady_state(
        BitRate::mbps(ri), 1500, TimeNs::sec(9), TimeNs::sec(1));
    row.push_back(steady.probe.to_mbps());
    for (int n : {3, 10, 50}) {
      traffic::TrainSpec spec;
      spec.n = n;
      spec.size_bytes = 1500;
      spec.gap = BitRate::mbps(ri).gap_for(1500);
      const auto seq = sc.run_train_sequence(
          spec, trains, TimeNs::ms(40),
          static_cast<std::uint64_t>(n));
      row.push_back(1500 * 8.0 / seq.mean_gap_s() / 1e6);
    }
    rows.push_back(row);
    table.add_row(row);
  }
  bench::emit(table, args, rows);
  std::cout << "# expect: train3 > train10 > train50 ~= steady at rates "
               "above the fair share\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("fig13_short_trains_nofifo", run, argc, argv);
}
