// Ablation (DESIGN.md section 5): effect of EIFS deference after
// collisions on the saturated fair share and on collision counts.  EIFS
// penalizes bystanders of a collision; with it disabled all stations
// defer plain DIFS.
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

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"duration", "csv", "threads", "progress"});
  const double seconds = args.get("duration", 6.0) * util::bench_scale() + 1.0;

  bench::announce("Ablation: EIFS",
                  "saturation throughput and collision rate with/without "
                  "EIFS deference",
                  "n saturated stations, 1500 B frames");

  util::Table table({"stations", "agg_eifs_mbps", "agg_no_eifs_mbps",
                     "collisions_eifs_per_s", "collisions_no_eifs_per_s",
                     "bianchi_eifs_mbps"});
  std::vector<std::vector<double>> rows;
  for (int n : {1, 2, 3, 5, 8}) {
    const SatResult with_eifs = saturate(n, true, seconds, 301);
    const SatResult without = saturate(n, false, seconds, 302);
    mac::PhyParams phy = mac::PhyParams::dot11b_short();
    const auto bi = mac::bianchi_saturation(phy, n, 1500);
    rows.push_back({static_cast<double>(n), with_eifs.aggregate_mbps,
                    without.aggregate_mbps, with_eifs.collisions_per_s,
                    without.collisions_per_s, bi.aggregate.to_mbps()});
    table.add_row(rows.back());
  }
  bench::emit(table, args, rows);
  std::cout << "# expect: EIFS slightly lowers aggregate throughput under "
               "contention (longer deference after collisions)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("ablate_eifs", run, argc, argv);
}
