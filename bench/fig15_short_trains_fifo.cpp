// Figure 15: experimental rate response curves of short packet trains on
// the COMPLETE system (FIFO cross-traffic at the probing station plus a
// contending station).  Dispersion measurements with short trains keep
// overestimating the steady-state response at high rates regardless of
// FIFO cross-traffic (Section 6.3).
//
// Every input rate is a runner job (--threads N); each builds its cells
// from the scenario seed alone.
#include <iostream>

#include "bench_common.hpp"
#include "core/scenario.hpp"

using namespace csmabw;

namespace {

void run(bench::Bench& b, const util::Args& args) {
  const int trains = args.get("trains", util::scaled_reps(200));
  const double cross_mbps = args.get("cross-mbps", 3.0);
  const double fifo_mbps = args.get("fifo-mbps", 1.0);
  const std::vector<double> rates =
      bench::grid(0.5, args.get("max-mbps", 10.0), 0.5);

  core::ScenarioConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", 15));
  cfg.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(cross_mbps), 1500));
  cfg.fifo_cross = core::StationSpec::poisson(BitRate::mbps(fifo_mbps), 1500);
  const core::Scenario sc(cfg);

  b.announce("Figure 15", "rate response of short trains, complete system",
             "contender Poisson " + util::Table::format(cross_mbps) +
                 " Mb/s; FIFO cross Poisson " +
                 util::Table::format(fifo_mbps) + " Mb/s; trains of "
                 "3/10/50, " + std::to_string(trains) + " per rate");

  b.columns({"input_mbps", "steady_state_mbps", "train3_mbps",
             "train10_mbps", "train50_mbps"});
  b.map_rows(rates.size(), [&](std::size_t i) {
    return bench::short_train_row(sc, rates[i], trains);
  });
  b.emit();
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("fig15_short_trains_fifo", run, argc, argv, "trains",
                     "cross-mbps", "fifo-mbps", "max-mbps", "seed");
}
