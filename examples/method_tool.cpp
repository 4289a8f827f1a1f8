// method_tool: run any registered measurement method over a simulated
// WLAN cell, selected by spec string at the command line.
//
//   $ ./example_method_tool --list
//   $ ./example_method_tool --method='slops:train_length=50' --cross-mbps=4
//   $ ./example_method_tool --method='packet_pair:pairs=200' --seed=7
//
// This is the core::MeasurementMethod API end-to-end: one string picks
// the tool and its options via core::MethodRegistry, every tool runs
// over the same core::ProbeTransport, and every tool reports through the
// same MeasurementReport shape.
#include <iostream>

#include "core/method.hpp"
#include "core/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"list", "seed", "cross-mbps", "contenders", "fifo-mbps",
                      "method"});

  const core::MethodRegistry& registry = core::MethodRegistry::global();
  if (args.get("list", false)) {
    std::cout << "registered measurement methods:\n";
    for (const std::string& name : registry.names()) {
      std::cout << "  " << name << "\n";
    }
    return 0;
  }

  core::ScenarioConfig cell;
  cell.seed = static_cast<std::uint64_t>(args.get("seed", 1));
  const double cross = args.get("cross-mbps", 4.0);
  for (int k = 0; k < args.get("contenders", 1); ++k) {
    cell.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(cross), 1500));
  }
  const double fifo = args.get("fifo-mbps", 0.0);
  if (fifo > 0.0) {
    cell.fifo_cross = core::StationSpec::poisson(BitRate::mbps(fifo), 1500);
  }

  const std::string spec = args.get("method", "bisection");
  core::SimTransport link(cell);
  const auto method = registry.create(spec);
  std::cout << "running `" << spec << "` (cross " << cross << " Mb/s x "
            << cell.contenders.size() << " contenders, capacity "
            << util::Table::format(cell.phy.saturation_rate(1500).to_mbps(), 3)
            << " Mb/s)...\n";
  const core::MeasurementReport report = method->run(link, cell.seed);

  std::cout << "estimate: "
            << util::Table::format(report.estimate_bps / 1e6, 3)
            << " Mb/s\ntrains sent/lost: " << report.trains_sent << "/"
            << report.trains_lost << ", probes sent: " << report.probes_sent
            << "\n";
  for (const auto& [key, value] : report.metrics) {
    std::cout << "  " << key << " = " << util::Table::format(value, 6)
              << "\n";
  }
  if (!report.curve.points.empty()) {
    util::Table curve({"input_mbps", "output_mbps"});
    for (const auto& p : report.curve.points) {
      curve.add_row({p.input_bps / 1e6, p.output_bps / 1e6});
    }
    curve.print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("example_method_tool", run, argc, argv);
}
