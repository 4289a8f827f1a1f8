// Ablation: RTS/CTS.  The paper's experiments disable the exchange; this
// bench quantifies what it would change — collision cost drops from a
// full data frame to an RTS, at the price of per-frame control overhead.
// With few stations and 1500-byte frames the overhead dominates (the
// usual justification for leaving it off).
//
// Every station count is a runner job (--threads N); its two runs build
// their cells from fixed seeds alone.
#include <iostream>

#include "bench_common.hpp"
#include "core/scenario.hpp"

using namespace csmabw;

namespace {

struct SatResult {
  double aggregate_mbps = 0.0;
  double collision_share = 0.0;  ///< busy time fraction wasted on collisions
};

SatResult saturate(int stations, bool rts, double seconds,
                   std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.phy.rts_threshold_bytes = rts ? 0 : -1;
  for (int i = 0; i < stations; ++i) {
    cfg.contenders.push_back(core::StationSpec::saturated(1500));
  }
  const core::ContentionResult cr =
      core::Scenario(cfg).run_contention(TimeNs::from_seconds(seconds),
                                         TimeNs::sec(1));

  SatResult r;
  r.aggregate_mbps = cr.aggregate.to_mbps();
  const double collision_time =
      static_cast<double>(cr.medium.collisions) *
      (rts ? cfg.phy.rts_tx_time() : cfg.phy.data_tx_time(1500)).to_seconds();
  r.collision_share = collision_time / cr.medium.busy_time.to_seconds();
  return r;
}

void run(bench::Bench& b, const util::Args& args) {
  const double seconds = args.get("duration", 6.0) * util::bench_scale() + 1.0;

  b.announce("Ablation: RTS/CTS",
             "saturation throughput and collision-time share with and "
             "without the RTS/CTS exchange",
             "n saturated stations, 1500 B frames");

  const std::vector<int> stations{2, 3, 5, 8, 12};
  b.columns({"stations", "agg_basic_mbps", "agg_rtscts_mbps",
             "collision_share_basic", "collision_share_rtscts"});
  b.map_rows(stations.size(), [&](std::size_t i) {
    const int n = stations[i];
    const SatResult basic = saturate(n, false, seconds, 501);
    const SatResult rts = saturate(n, true, seconds, 502);
    return std::vector<double>{static_cast<double>(n), basic.aggregate_mbps,
                               rts.aggregate_mbps, basic.collision_share,
                               rts.collision_share};
  });
  b.emit();
  std::cout << "# expect: RTS/CTS costs throughput at small n (overhead) "
               "but wastes far less channel time per collision\n";
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("ablate_rtscts", run, argc, argv, "duration");
}
