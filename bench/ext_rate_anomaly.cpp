// Extension: the 802.11 rate anomaly (Heusse et al. 2003) reproduced on
// our DCF, and its effect on bandwidth probing.  A slow (2 Mb/s) station
// contending with fast (11 Mb/s) ones drags everyone to roughly equal
// per-station throughput; a probing flow measuring the cell sees its
// achievable throughput collapse accordingly.
//
// Each (fast-station count) x (with/without laggard) cell is one
// heterogeneous-rate scenario spec ("Nx saturated + 1x saturated@2M")
// run as a runner job: cells execute across --threads workers, each
// seeded from (campaign seed, cell index) alone, so the table is
// byte-identical for any thread count.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/scenario.hpp"
#include "exp/engine.hpp"

using namespace csmabw;

namespace {

void run(bench::Bench& b, const util::Args& args) {
  const double seconds = args.get("duration", 8.0) * util::bench_scale() + 1.0;
  const std::vector<int> fast_counts = args.get_ints("fast", {1, 2, 3, 5});

  b.announce("Extension: 802.11 rate anomaly",
             "per-station saturation throughput with one 2 Mb/s "
             "laggard in an 11 Mb/s cell",
             "all stations saturated, 1500 B frames, one scenario "
             "spec per cell");

  // Two runs per fast-station count: the homogeneous baseline and the
  // same cell plus one laggard at a 2 Mb/s PHY rate.  Run i is seeded
  // like campaign cell i.
  const auto seed = static_cast<std::uint64_t>(args.get("seed", 401));
  const auto results = b.map(2 * fast_counts.size(), [&](std::size_t i) {
    const core::ScenarioSpec spec = core::ScenarioSpec::parse(
        "phy=dot11b_short;contenders=" + std::to_string(fast_counts[i / 2]) +
        "x saturated" + (i % 2 == 1 ? " + 1x saturated@2M" : ""));
    const core::Scenario sc(
        spec.to_config(exp::Campaign::cell_seed(seed, static_cast<int>(i))));
    return sc.run_contention(TimeNs::from_seconds(seconds), TimeNs::sec(1));
  });

  b.columns({"fast_stations", "fast_alone_mbps", "fast_with_laggard_mbps",
             "laggard_mbps"});
  for (std::size_t i = 0; i < fast_counts.size(); ++i) {
    const int n = fast_counts[i];
    const core::ContentionResult& alone = results[2 * i];
    const core::ContentionResult& mixed = results[2 * i + 1];
    const auto mean_fast = [n](const core::ContentionResult& r) {
      double total = 0.0;
      for (int k = 0; k < n; ++k) {
        total += r.per_contender[static_cast<std::size_t>(k)].to_mbps();
      }
      return total / n;
    };
    b.row({static_cast<double>(n), mean_fast(alone), mean_fast(mixed),
           mixed.per_contender.back().to_mbps()});
  }
  b.emit();
  std::cout << "# expect: fast_with_laggard ~= laggard (equal shares), far "
               "below fast_alone — the anomaly\n";
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("ext_rate_anomaly", run, argc, argv, "duration",
                     "fast", "seed");
}
