// Figure 1: experimental steady-state rate response curve of probe
// traffic in a WLAN setting versus the throughput of the cross-traffic
// flow.  Paper values: C = 6.5 Mb/s, A = 2 Mb/s, B = 3.4 Mb/s on the
// testbed; our 802.11b short-preamble DCF gives C ~= 6.9 Mb/s with the
// same shape (the probe curve flattens at the fair share B, past the
// available bandwidth A).
#include <iostream>

#include "bench_common.hpp"
#include "core/scenario.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"cross-mbps", "duration", "max-mbps", "step-mbps", "seed",
                      "csv", "threads", "progress"});
  const double cross_mbps = args.get("cross-mbps", 4.5);
  const double duration_s = args.get("duration", 10.0) * util::bench_scale();
  const double max_rate = args.get("max-mbps", 10.0);
  const double step = args.get("step-mbps", 0.25);

  core::ScenarioConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", 1));
  cfg.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(cross_mbps), 1500));
  core::Scenario sc(cfg);

  const double capacity = cfg.phy.saturation_rate(1500).to_mbps();
  bench::announce(
      "Figure 1", "steady-state rate response vs cross-traffic throughput",
      "1 contender, Poisson " + util::Table::format(cross_mbps) +
          " Mb/s, 1500 B; probe CBR sweep; window " +
          util::Table::format(duration_s) + " s");

  // Fair share B: what a saturating probe settles at.
  const auto sat = sc.run_steady_state(
      BitRate::mbps(2.0 * capacity), 1500,
      TimeNs::from_seconds(duration_s + 1.0), TimeNs::sec(1));
  std::cout << "# reference: C=" << util::Table::format(capacity)
            << " Mb/s  A=" << util::Table::format(capacity - cross_mbps)
            << " Mb/s  B=" << util::Table::format(sat.probe.to_mbps())
            << " Mb/s\n";

  util::Table table({"probe_in_mbps", "probe_out_mbps", "cross_mbps"});
  std::vector<std::vector<double>> rows;
  for (double ri = step; ri <= max_rate + 1e-9; ri += step) {
    const auto r = sc.run_steady_state(BitRate::mbps(ri), 1500,
                                       TimeNs::from_seconds(duration_s + 1.0),
                                       TimeNs::sec(1));
    rows.push_back({ri, r.probe.to_mbps(), r.contenders_total.to_mbps()});
    table.add_row(rows.back());
  }
  bench::emit(table, args, rows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("fig01_steady_state_rate_response", run, argc, argv);
}
