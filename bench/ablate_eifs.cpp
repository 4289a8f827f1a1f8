// Ablation (DESIGN.md section 5): effect of EIFS deference after
// collisions on the saturated fair share and on collision counts.  EIFS
// penalizes bystanders of a collision; with it disabled all stations
// defer plain DIFS.
//
// Every station count is a runner job (--threads N); its two runs build
// their cells from fixed seeds alone.
#include <iostream>

#include "bench_common.hpp"
#include "core/scenario.hpp"
#include "mac/bianchi.hpp"

using namespace csmabw;

namespace {

struct SatResult {
  double aggregate_mbps;
  double collisions_per_s;
};

SatResult saturate(int stations, bool use_eifs, double seconds,
                   std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.phy.use_eifs = use_eifs;
  for (int i = 0; i < stations; ++i) {
    cfg.contenders.push_back(core::StationSpec::saturated(1500));
  }
  const core::ContentionResult r =
      core::Scenario(cfg).run_contention(TimeNs::from_seconds(seconds),
                                         TimeNs::sec(1));
  return SatResult{r.aggregate.to_mbps(),
                   static_cast<double>(r.medium.collisions) /
                       (seconds - 1.0)};
}

void run(bench::Bench& b, const util::Args& args) {
  const double seconds = args.get("duration", 6.0) * util::bench_scale() + 1.0;

  b.announce("Ablation: EIFS",
             "saturation throughput and collision rate with/without "
             "EIFS deference",
             "n saturated stations, 1500 B frames");

  const std::vector<int> stations{1, 2, 3, 5, 8};
  b.columns({"stations", "agg_eifs_mbps", "agg_no_eifs_mbps",
             "collisions_eifs_per_s", "collisions_no_eifs_per_s",
             "bianchi_eifs_mbps"});
  b.map_rows(stations.size(), [&](std::size_t i) {
    const int n = stations[i];
    const SatResult with_eifs = saturate(n, true, seconds, 301);
    const SatResult without = saturate(n, false, seconds, 302);
    const auto bi =
        mac::bianchi_saturation(mac::PhyParams::dot11b_short(), n, 1500);
    return std::vector<double>{static_cast<double>(n),
                               with_eifs.aggregate_mbps,
                               without.aggregate_mbps,
                               with_eifs.collisions_per_s,
                               without.collisions_per_s,
                               bi.aggregate.to_mbps()};
  });
  b.emit();
  std::cout << "# expect: EIFS slightly lowers aggregate throughput under "
               "contention (longer deference after collisions)\n";
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("ablate_eifs", run, argc, argv, "duration");
}
