// model_validation: use the paper's complete model (Section 3.2)
// predictively.
//
//   $ ./model_validation --contender-mbps 3.0 --fifo-mbps 1.0
//
// Measures Bf (the achievable throughput with no FIFO cross-traffic) and
// u_fifo (the FIFO cross-traffic utilization) in two calibration runs,
// predicts the rate response curve of the complete system from Eq. (4)
// and B from Eq. (5), then measures the complete system and reports the
// prediction error at every rate — the workflow a capacity-planning tool
// would follow.
#include <iostream>

#include "core/rate_response.hpp"
#include "core/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"contender-mbps", "fifo-mbps", "seed", "max-mbps"});
  const double contender = args.get("contender-mbps", 3.0);
  const double fifo = args.get("fifo-mbps", 1.0);
  const TimeNs horizon = TimeNs::sec(9);
  const TimeNs warm = TimeNs::sec(1);

  // Calibration run 1: no FIFO cross-traffic; a saturating probe
  // measures Bf.
  core::ScenarioConfig base;
  base.seed = static_cast<std::uint64_t>(args.get("seed", 11));
  base.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(contender), 1500));
  const double bf = core::Scenario(base)
                        .run_steady_state(BitRate::mbps(16.0), 1500,
                                          horizon, warm)
                        .probe.to_mbps();

  // Calibration run 2: the FIFO flow alone on the probing station gives
  // u_fifo = its throughput share of Bf (it uses the station's capacity
  // that fraction of the time).
  core::ScenarioConfig with_fifo = base;
  with_fifo.fifo_cross = core::StationSpec::poisson(BitRate::mbps(fifo), 1500);
  const double u_fifo = fifo / bf;

  const core::CompleteCurve model{bf * 1e6, u_fifo};
  std::cout << "calibrated: Bf = " << util::Table::format(bf, 3)
            << " Mb/s, u_fifo = " << util::Table::format(u_fifo, 3)
            << "  =>  predicted B = "
            << util::Table::format(model.achievable_bps() / 1e6, 3)
            << " Mb/s (Eq. 5)\n\n";

  // Validation: measure the complete system against Eq. (4).
  core::Scenario sc(with_fifo);
  util::Table table(
      {"input_mbps", "measured_mbps", "eq4_predicted_mbps", "error_mbps"});
  double worst = 0.0;
  for (double ri = 1.0; ri <= args.get("max-mbps", 9.0) + 1e-9; ri += 1.0) {
    const auto r =
        sc.run_steady_state(BitRate::mbps(ri), 1500, horizon, warm);
    const double predicted = model.response_bps(ri * 1e6) / 1e6;
    const double err = r.probe.to_mbps() - predicted;
    worst = std::max(worst, std::abs(err));
    table.add_row({ri, r.probe.to_mbps(), predicted, err});
  }
  table.print(std::cout);
  std::cout << "\nworst-case prediction error: "
            << util::Table::format(worst, 3) << " Mb/s\n";
  return worst > 0.5 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("example_model_validation", run, argc, argv);
}
