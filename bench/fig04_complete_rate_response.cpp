// Figure 4: "the complete picture" — steady-state rate response when the
// probing flow both shares its FIFO queue with local cross-traffic and
// contends for the channel with another station (Section 3.2, Eq. 4).
// The curve deviates once probe + FIFO cross-traffic together hit the
// station's fair share; pushing harder squeezes the FIFO cross-traffic.
#include <iostream>

#include "bench_common.hpp"
#include "core/scenario.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"contender-mbps", "fifo-mbps", "duration", "max-mbps",
                      "step-mbps", "seed", "csv", "threads", "progress"});
  const double contender_mbps = args.get("contender-mbps", 2.5);
  const double fifo_mbps = args.get("fifo-mbps", 1.5);
  const double duration_s = args.get("duration", 10.0) * util::bench_scale();

  core::ScenarioConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", 1));
  cfg.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(contender_mbps), 1500));
  cfg.fifo_cross = core::StationSpec::poisson(BitRate::mbps(fifo_mbps), 1500);
  core::Scenario sc(cfg);

  bench::announce(
      "Figure 4", "complete rate response with FIFO + contending cross-traffic",
      "contender Poisson " + util::Table::format(contender_mbps) +
          " Mb/s; FIFO cross-traffic Poisson " +
          util::Table::format(fifo_mbps) + " Mb/s on the probe station");

  util::Table table({"probe_in_mbps", "probe_out_mbps", "contending_mbps",
                     "fifo_cross_mbps"});
  std::vector<std::vector<double>> rows;
  for (double ri = 0.25; ri <= args.get("max-mbps", 10.0) + 1e-9;
       ri += args.get("step-mbps", 0.25)) {
    const auto r = sc.run_steady_state(BitRate::mbps(ri), 1500,
                                       TimeNs::from_seconds(duration_s + 1.0),
                                       TimeNs::sec(1));
    rows.push_back({ri, r.probe.to_mbps(), r.contenders_total.to_mbps(),
                    r.fifo_cross.to_mbps()});
    table.add_row(rows.back());
  }
  bench::emit(table, args, rows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("fig04_complete_rate_response", run, argc, argv);
}
