// Calibration (paper Appendix A): the paper calibrated its testbed and
// NS2 against each other before comparing results; our analogue is
// calibrating the DCF simulator against Bianchi's analytical saturation
// model across station counts and frame sizes.  Disagreement beyond a
// few percent would invalidate every figure downstream.
//
// Every (frame size, station count) point is a runner job (--threads N)
// building its cell from a fixed seed alone.
#include <iostream>

#include "bench_common.hpp"
#include "core/scenario.hpp"
#include "mac/bianchi.hpp"

using namespace csmabw;

namespace {

double saturated_aggregate_mbps(int stations, int size_bytes, double seconds,
                                std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.seed = seed;
  for (int i = 0; i < stations; ++i) {
    cfg.contenders.push_back(core::StationSpec::saturated(size_bytes));
  }
  const core::Scenario sc(cfg);
  return sc
      .run_contention(TimeNs::from_seconds(seconds), TimeNs::sec(1))
      .aggregate.to_mbps();
}

void run(bench::Bench& b, const util::Args& args) {
  const double seconds = args.get("duration", 8.0) * util::bench_scale() + 1.0;

  b.announce("Calibration (Appendix A)",
             "DCF simulator vs Bianchi analytical saturation model",
             "n saturated stations, 802.11b short preamble");

  std::vector<std::pair<int, int>> points;  // (size_bytes, stations)
  for (int size : {500, 1500}) {
    for (int n : {1, 2, 3, 5, 8, 12}) {
      points.emplace_back(size, n);
    }
  }
  const auto rows = b.map(points.size(), [&](std::size_t i) {
    const auto [size, n] = points[i];
    const double sim = saturated_aggregate_mbps(
        n, size, seconds, 601 + static_cast<std::uint64_t>(n));
    const auto bi =
        mac::bianchi_saturation(mac::PhyParams::dot11b_short(), n, size);
    const double err =
        100.0 * (sim - bi.aggregate.to_mbps()) / bi.aggregate.to_mbps();
    return std::vector<double>{static_cast<double>(n),
                               static_cast<double>(size), sim,
                               bi.aggregate.to_mbps(), err};
  });

  b.columns({"stations", "size_bytes", "sim_agg_mbps", "bianchi_agg_mbps",
             "error_pct"});
  double worst = 0.0;
  for (const std::vector<double>& row : rows) {
    worst = std::max(worst, std::abs(row.back()));
    b.row(row);
  }
  b.emit();
  std::cout << "# worst-case |error|: " << util::Table::format(worst, 2)
            << "% (the Bianchi model itself is a slot-process "
               "approximation; <10% is the usual agreement)\n";
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("calibration_bianchi", run, argc, argv, "duration");
}
