// Figure 16: packet-pair based bandwidth inference vs the actual fluid
// response (achievable throughput) for a range of cross-traffic rates.
// The link capacity stays constant (no channel errors); packet pairs
// track the achievable throughput, not the capacity — and overestimate
// it whenever contending traffic is present (Section 7.3).
//
// Each cross-rate point is one runner job, seeded like campaign cell i:
// the steady-state run and the packet-pair ensemble of different points
// execute across the worker pool (--threads N).
#include <iostream>

#include "bench_common.hpp"
#include "core/method.hpp"
#include "exp/engine.hpp"

using namespace csmabw;

namespace {

void run(bench::Bench& b, const util::Args& args) {
  const int pairs =
      bench::count_flag(args, "pairs", util::scaled_reps(200), 1);
  const mac::PhyParams phy = mac::PhyParams::dot11b_short();
  const double capacity = phy.saturation_rate(1500).to_mbps();

  b.announce("Figure 16",
             "packet-pair inference vs actual achievable throughput",
             "cross-traffic rate swept 0..6 Mb/s; " + std::to_string(pairs) +
                 " pairs per point; capacity constant " +
                 util::Table::format(capacity) + " Mb/s");

  const std::vector<double> crosses = bench::grid(0.0, 6.0, 0.5);
  const auto seed = static_cast<std::uint64_t>(args.get("seed", 16));
  b.columns({"cross_mbps", "actual_achievable_mbps", "packet_pair_mbps",
             "capacity_mbps"});
  b.map_rows(crosses.size(), [&](std::size_t i) {
    core::ScenarioConfig cfg;
    cfg.phy = phy;
    cfg.seed = exp::Campaign::cell_seed(seed, static_cast<int>(i));
    if (crosses[i] > 0.0) {
      cfg.contenders.push_back(
          core::StationSpec::poisson(BitRate::mbps(crosses[i]), 1500));
    }
    // Actual achievable throughput: saturated long run.
    const auto sat = core::Scenario(cfg).run_steady_state(
        BitRate::mbps(16.0), 1500, TimeNs::sec(9), TimeNs::sec(1));
    // Packet-pair inference.
    core::SimTransport transport(cfg);
    const core::MeasurementReport pp =
        core::MethodRegistry::global()
            .create("packet_pair:pairs=" + std::to_string(pairs))
            ->run(transport, 0);
    return std::vector<double>{crosses[i], sat.probe.to_mbps(),
                               pp.estimate_bps / 1e6, capacity};
  });
  b.emit();
  std::cout << "# expect: pair estimate > actual achievable for cross > 0, "
               "both well below capacity\n";
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("fig16_packet_pair_bias", run, argc, argv, "pairs",
                     "seed");
}
