// Figure 16: packet-pair based bandwidth inference vs the actual fluid
// response (achievable throughput) for a range of cross-traffic rates.
// The link capacity stays constant (no channel errors); packet pairs
// track the achievable throughput, not the capacity — and overestimate
// it whenever contending traffic is present (Section 7.3).
//
// Each cross-rate point is one custom campaign cell; the steady-state
// run and the packet-pair ensemble of different points execute across
// the engine's worker pool (--threads N).
#include <iostream>

#include "bench_common.hpp"
#include "core/method.hpp"
#include "exp/engine.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"pairs", "seed", "csv", "threads", "progress"});
  const int pairs = args.get("pairs", util::scaled_reps(200));
  const mac::PhyParams phy = mac::PhyParams::dot11b_short();

  bench::announce("Figure 16",
                  "packet-pair inference vs actual achievable throughput",
                  "cross-traffic rate swept 0..6 Mb/s; " +
                      std::to_string(pairs) + " pairs per point; capacity "
                      "constant " +
                      util::Table::format(phy.saturation_rate(1500).to_mbps()) +
                      " Mb/s");

  std::vector<exp::Cell> cells;
  for (double cross = 0.0; cross <= 6.0 + 1e-9; cross += 0.5) {
    exp::Cell cell;
    cell.cross_mbps = cross;
    cell.contenders = cross > 0.0 ? 1 : 0;
    cell.phy_preset = "dot11b_short";
    cell.repetitions = pairs;
    cell.scenario.phy = phy;
    if (cross > 0.0) {
      cell.scenario.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(cross), 1500));
    }
    cells.push_back(std::move(cell));
  }
  const exp::Campaign campaign(
      std::move(cells), static_cast<std::uint64_t>(args.get("seed", 16)));

  struct PointResult {
    double cross_mbps = 0.0;
    double achievable_mbps = 0.0;
    double pair_estimate_mbps = 0.0;
  };

  exp::Progress progress(campaign.size(), "fig16",
                         bench::progress_enabled(args));
  const exp::Runner runner = bench::runner_from(args, &progress);
  const auto points =
      exp::run_cells(campaign, runner, [&](const exp::Cell& cell) {
        const core::Scenario sc(cell.scenario);
        // Actual achievable throughput: saturated long run.
        const auto sat = sc.run_steady_state(BitRate::mbps(16.0), 1500,
                                             TimeNs::sec(9), TimeNs::sec(1));
        // Packet-pair inference.
        core::SimTransport transport(cell.scenario);
        const core::MeasurementReport pp =
            core::MethodRegistry::global()
                .create("packet_pair:pairs=" +
                        std::to_string(cell.repetitions))
                ->run(transport, 0);
        return PointResult{cell.cross_mbps, sat.probe.to_mbps(),
                           pp.estimate_bps / 1e6};
      });
  progress.finish();

  util::Table table({"cross_mbps", "actual_achievable_mbps",
                     "packet_pair_mbps", "capacity_mbps"});
  std::vector<std::vector<double>> rows;
  const double capacity = phy.saturation_rate(1500).to_mbps();
  for (const PointResult& p : points) {
    rows.push_back(
        {p.cross_mbps, p.achievable_mbps, p.pair_estimate_mbps, capacity});
    table.add_row(rows.back());
  }
  bench::emit(table, args, rows);
  std::cout << "# expect: pair estimate > actual achievable for cross > 0, "
               "both well below capacity\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("fig16_packet_pair_bias", run, argc, argv);
}
