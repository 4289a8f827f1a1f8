// Quickstart: measure the achievable throughput of a contended CSMA/CA
// link with a dispersion-based bandwidth tool.
//
//   $ ./quickstart
//
// Builds a simulated 802.11b cell (one station sending Poisson
// cross-traffic), runs the `bisection` tool over it, and prints the
// steady-state achievable throughput — the metric the paper shows
// bandwidth tools actually measure on CSMA/CA links (not the available
// bandwidth).
#include <cstdio>

#include "core/method.hpp"
#include "core/scenario.hpp"
#include "util/cli.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({});

  // A WLAN cell: 802.11b at 11 Mb/s, one contending station offering
  // 4 Mb/s of Poisson cross-traffic with 1500-byte packets.
  core::ScenarioConfig cell;
  cell.seed = 42;
  cell.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(4.0), 1500));

  // Every tool drives a ProbeTransport; here the DCF simulator.
  core::SimTransport link(cell);

  // Adaptive bisection on ro/ri ~= 1 with trains of 40 packets, 5
  // trains averaged per probing rate.
  const auto tool = core::MethodRegistry::global().create(
      "bisection:train_length=40,trains_per_rate=5");
  const double achievable = tool->run(link, /*seed=*/0).estimate_bps;

  const double capacity = cell.phy.saturation_rate(1500).to_bps();
  std::printf("link capacity (C):          %.2f Mb/s\n", capacity / 1e6);
  std::printf("cross traffic:              4.00 Mb/s\n");
  std::printf("available bandwidth (A):    %.2f Mb/s\n",
              (capacity - 4e6) / 1e6);
  std::printf("measured achievable (B):    %.2f Mb/s\n", achievable / 1e6);
  std::printf("\nNote how B != A: on CSMA/CA links dispersion tools measure\n"
              "the fair share (achievable throughput), not the leftover\n"
              "capacity — the paper's central observation.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("example_quickstart", run, argc, argv);
}
