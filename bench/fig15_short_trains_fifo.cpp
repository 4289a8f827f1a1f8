// Figure 15: experimental rate response curves of short packet trains on
// the COMPLETE system (FIFO cross-traffic at the probing station plus a
// contending station).  Dispersion measurements with short trains keep
// overestimating the steady-state response at high rates regardless of
// FIFO cross-traffic (Section 6.3).
#include <iostream>

#include "bench_common.hpp"
#include "core/scenario.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"trains", "cross-mbps", "fifo-mbps", "max-mbps", "seed",
                      "csv", "threads", "progress"});
  const int trains = args.get("trains", util::scaled_reps(200));
  const double cross_mbps = args.get("cross-mbps", 3.0);
  const double fifo_mbps = args.get("fifo-mbps", 1.0);

  core::ScenarioConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", 15));
  cfg.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(cross_mbps), 1500));
  cfg.fifo_cross = core::StationSpec::poisson(BitRate::mbps(fifo_mbps), 1500);
  core::Scenario sc(cfg);

  bench::announce("Figure 15",
                  "rate response of short trains, complete system",
                  "contender Poisson " + util::Table::format(cross_mbps) +
                      " Mb/s; FIFO cross Poisson " +
                      util::Table::format(fifo_mbps) + " Mb/s; trains of "
                      "3/10/50, " + std::to_string(trains) + " per rate");

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
          spec, trains, TimeNs::ms(40), static_cast<std::uint64_t>(n));
      row.push_back(1500 * 8.0 / seq.mean_gap_s() / 1e6);
    }
    rows.push_back(row);
    table.add_row(row);
  }
  bench::emit(table, args, rows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("fig15_short_trains_fifo", run, argc, argv);
}
