// wlan_bandwidth_scan: a pathload-style rate-response scanner for
// CSMA/CA links, with optional MSER-2 transient correction.
//
//   $ ./wlan_bandwidth_scan --cross-mbps 4.5 --fifo-mbps 1.0
//        [--train 20] [--trains-per-rate 20] [--mser true]
//        [--min-mbps 0.5] [--max-mbps 10] [--grid 20]
//
// Sweeps `--grid` evenly spaced probing rates over a configurable
// simulated WLAN cell with the `train_sweep` tool, prints the measured
// rate response curve, and fits the achievable throughput.  This is the
// workload the paper's Figs 13/15/17 study: short trains without
// correction overestimate B; --mser true tightens the estimate.
#include <iostream>
#include <string>

#include "core/method.hpp"
#include "core/scenario.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"seed", "cross-mbps", "fifo-mbps", "train",
                      "trains-per-rate", "mser", "min-mbps", "max-mbps",
                      "grid"});

  core::ScenarioConfig cell;
  cell.seed = static_cast<std::uint64_t>(args.get("seed", 1));
  cell.contenders.push_back(core::StationSpec::poisson(
      BitRate::mbps(args.get("cross-mbps", 4.5)), 1500));
  const double fifo = args.get("fifo-mbps", 0.0);
  if (fifo > 0.0) {
    cell.fifo_cross = core::StationSpec::poisson(BitRate::mbps(fifo), 1500);
  }

  const int train = args.get("train", 20);
  const int grid = args.get("grid", 20);
  const bool mser = args.get("mser", false);
  const std::string spec =
      "train_sweep:train_length=" + std::to_string(train) +
      ",trains_per_rate=" + std::to_string(args.get("trains-per-rate", 20)) +
      ",mser=" + (mser ? "1" : "0") +
      ",min_rate_mbps=" + util::json_number(args.get("min-mbps", 0.5)) +
      ",max_rate_mbps=" + util::json_number(args.get("max-mbps", 10.0)) +
      ",grid=" + std::to_string(grid);
  const auto tool = core::MethodRegistry::global().create(spec);

  std::cout << "scanning " << grid << " rates with trains of " << train
            << " packets" << (mser ? " (MSER-2 corrected)" : "") << "...\n";

  core::SimTransport link(cell);
  const core::MeasurementReport sweep = tool->run(link, /*seed=*/0);

  util::Table table({"input_mbps", "output_mbps", "ratio"});
  for (const auto& p : sweep.curve.points) {
    table.add_row({p.input_bps / 1e6, p.output_bps / 1e6,
                   p.output_bps / p.input_bps});
  }
  table.print(std::cout);

  std::cout << "\nfitted achievable throughput B = "
            << util::Table::format(sweep.estimate_bps / 1e6, 3)
            << " Mb/s (" << sweep.trains_lost << " trains lost)\n";
  std::cout << "link capacity C = "
            << util::Table::format(
                   cell.phy.saturation_rate(1500).to_mbps(), 3)
            << " Mb/s\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("example_wlan_bandwidth_scan", run, argc, argv);
}
