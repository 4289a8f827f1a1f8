// Figure 1: experimental steady-state rate response curve of probe
// traffic in a WLAN setting versus the throughput of the cross-traffic
// flow.  Paper values: C = 6.5 Mb/s, A = 2 Mb/s, B = 3.4 Mb/s on the
// testbed; our 802.11b short-preamble DCF gives C ~= 6.9 Mb/s with the
// same shape (the probe curve flattens at the fair share B, past the
// available bandwidth A).
//
// The saturating reference run and every probe rate are runner jobs
// (--threads N); each builds its cell from the scenario seed alone.
#include <iostream>

#include "bench_common.hpp"
#include "core/scenario.hpp"

using namespace csmabw;

namespace {

void run(bench::Bench& b, const util::Args& args) {
  const double cross_mbps = args.get("cross-mbps", 4.5);
  const double duration_s = args.get("duration", 10.0) * util::bench_scale();
  const double step = args.get("step-mbps", 0.25);
  const std::vector<double> rates =
      bench::grid(step, args.get("max-mbps", 10.0), step);

  core::ScenarioConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", 1));
  cfg.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(cross_mbps), 1500));
  const core::Scenario sc(cfg);

  const double capacity = cfg.phy.saturation_rate(1500).to_mbps();
  b.announce(
      "Figure 1", "steady-state rate response vs cross-traffic throughput",
      "1 contender, Poisson " + util::Table::format(cross_mbps) +
          " Mb/s, 1500 B; probe CBR sweep; window " +
          util::Table::format(duration_s) + " s");

  // Job 0 is the fair share B: what a saturating probe settles at.
  const auto results = b.map(rates.size() + 1, [&](std::size_t i) {
    const double mbps = i == 0 ? 2.0 * capacity : rates[i - 1];
    return sc.run_steady_state(BitRate::mbps(mbps), 1500,
                               TimeNs::from_seconds(duration_s + 1.0),
                               TimeNs::sec(1));
  });
  std::cout << "# reference: C=" << util::Table::format(capacity)
            << " Mb/s  A=" << util::Table::format(capacity - cross_mbps)
            << " Mb/s  B=" << util::Table::format(results[0].probe.to_mbps())
            << " Mb/s\n";

  b.columns({"probe_in_mbps", "probe_out_mbps", "cross_mbps"});
  for (std::size_t i = 0; i < rates.size(); ++i) {
    b.row({rates[i], results[i + 1].probe.to_mbps(),
           results[i + 1].contenders_total.to_mbps()});
  }
  b.emit();
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("fig01_steady_state_rate_response", run, argc, argv,
                     "cross-mbps", "duration", "max-mbps", "step-mbps",
                     "seed");
}
