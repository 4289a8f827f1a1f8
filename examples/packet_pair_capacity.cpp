// packet_pair_capacity: the classic packet-pair capacity probe, and why
// it misleads on CSMA/CA links.
//
//   $ ./packet_pair_capacity --pairs 200
//
// Sends back-to-back packet pairs over three links: an uncontended
// simulated WLAN, the same WLAN with contending cross-traffic, and (if
// sockets are available) a real UDP loopback path.  On the uncontended
// link the pair reads the capacity; under contention it chases the
// achievable throughput and overestimates it (paper Section 7.3).
#include <iostream>

#include "core/method.hpp"
#include "core/scenario.hpp"
#include "net/udp_probe.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"pairs"});
  const int pairs = args.get("pairs", 200);

  util::Table table({"link", "pair_estimate_mbps", "note"});
  const auto pair_estimate_mbps = [](core::ProbeTransport& link, int n) {
    return core::MethodRegistry::global()
               .create("packet_pair:pairs=" + std::to_string(n))
               ->run(link, /*seed=*/0)
               .estimate_bps /
           1e6;
  };

  // 1. Uncontended WLAN: the pair dispersion equals one service cycle.
  {
    core::ScenarioConfig cell;
    cell.seed = 1;
    core::SimTransport link(cell);
    table.add_row({std::string("wlan idle"),
                   util::Table::format(pair_estimate_mbps(link, pairs), 3),
                   "~= capacity " +
                       util::Table::format(
                           cell.phy.saturation_rate(1500).to_mbps(), 3) +
                       " Mb/s"});
  }

  // 2. Contended WLAN: estimate drops toward (and overshoots) the fair
  // share, far below the unchanged capacity.
  {
    core::ScenarioConfig cell;
    cell.seed = 2;
    cell.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(4.0), 1500));
    core::SimTransport link(cell);
    table.add_row({std::string("wlan + 4 Mb/s contender"),
                   util::Table::format(pair_estimate_mbps(link, pairs), 3),
                   "reads the achievable throughput, not capacity"});
  }

  // 3. Real sockets over loopback (the testbed-substitute code path).
  try {
    net::UdpLoopbackTransport link(/*session=*/7);
    table.add_row({std::string("udp loopback"),
                   util::Table::format(
                       pair_estimate_mbps(link, std::min(pairs, 50)), 1),
                   "kernel loopback path (no MAC contention)"});
  } catch (const std::exception& e) {
    table.add_row({std::string("udp loopback"), std::string("n/a"),
                   std::string("sockets unavailable: ") + e.what()});
  }

  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("example_packet_pair_capacity", run, argc, argv);
}
