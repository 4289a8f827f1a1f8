// Figure 13: experimental rate response curves of short packet trains on
// a system WITHOUT FIFO cross-traffic, against the steady-state
// response.  Short trains (n = 3) overestimate the achievable throughput
// at high probing rates; longer trains converge to the steady curve
// (Section 6.2).
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
  const double cross_mbps = args.get("cross-mbps", 4.0);
  const std::vector<double> rates =
      bench::grid(0.5, args.get("max-mbps", 10.0), 0.5);

  core::ScenarioConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", 13));
  cfg.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(cross_mbps), 1500));
  const core::Scenario sc(cfg);

  b.announce("Figure 13",
             "rate response of short trains, no FIFO cross-traffic",
             "contender Poisson " + util::Table::format(cross_mbps) +
                 " Mb/s; trains of 3/10/50, " + std::to_string(trains) +
                 " Poisson-spaced trains per rate");

  b.columns({"input_mbps", "steady_state_mbps", "train3_mbps",
             "train10_mbps", "train50_mbps"});
  b.map_rows(rates.size(), [&](std::size_t i) {
    return bench::short_train_row(sc, rates[i], trains);
  });
  b.emit();
  std::cout << "# expect: train3 > train10 > train50 ~= steady at rates "
               "above the fair share\n";
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("fig13_short_trains_nofifo", run, argc, argv, "trains",
                     "cross-mbps", "max-mbps", "seed");
}
