// Figure 4: "the complete picture" — steady-state rate response when the
// probing flow both shares its FIFO queue with local cross-traffic and
// contends for the channel with another station (Section 3.2, Eq. 4).
// The curve deviates once probe + FIFO cross-traffic together hit the
// station's fair share; pushing harder squeezes the FIFO cross-traffic.
//
// Every probe rate is a runner job (--threads N); each builds its cell
// from the scenario seed alone.
#include <iostream>

#include "bench_common.hpp"
#include "core/scenario.hpp"

using namespace csmabw;

namespace {

void run(bench::Bench& b, const util::Args& args) {
  const double contender_mbps = args.get("contender-mbps", 2.5);
  const double fifo_mbps = args.get("fifo-mbps", 1.5);
  const double duration_s = args.get("duration", 10.0) * util::bench_scale();
  const std::vector<double> rates = bench::grid(
      0.25, args.get("max-mbps", 10.0), args.get("step-mbps", 0.25));

  core::ScenarioConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", 1));
  cfg.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(contender_mbps), 1500));
  cfg.fifo_cross = core::StationSpec::poisson(BitRate::mbps(fifo_mbps), 1500);
  const core::Scenario sc(cfg);

  b.announce(
      "Figure 4", "complete rate response with FIFO + contending cross-traffic",
      "contender Poisson " + util::Table::format(contender_mbps) +
          " Mb/s; FIFO cross-traffic Poisson " +
          util::Table::format(fifo_mbps) + " Mb/s on the probe station");

  const auto results = b.map(rates.size(), [&](std::size_t i) {
    return sc.run_steady_state(BitRate::mbps(rates[i]), 1500,
                               TimeNs::from_seconds(duration_s + 1.0),
                               TimeNs::sec(1));
  });
  b.columns({"probe_in_mbps", "probe_out_mbps", "contending_mbps",
             "fifo_cross_mbps"});
  for (std::size_t i = 0; i < rates.size(); ++i) {
    b.row({rates[i], results[i].probe.to_mbps(),
           results[i].contenders_total.to_mbps(),
           results[i].fifo_cross.to_mbps()});
  }
  b.emit();
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("fig04_complete_rate_response", run, argc, argv,
                     "contender-mbps", "fifo-mbps", "duration", "max-mbps",
                     "step-mbps", "seed");
}
