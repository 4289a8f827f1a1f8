// Figure 17: MSER-2 based measurement.  Twenty-packet trains measured
// raw vs with MSER-2 transient truncation applied to the per-index mean
// inter-arrival series, against the steady-state response.  The
// truncated measurement approaches the steady-state curve without
// sending more probes (Section 7.4).
#include <iostream>

#include "bench_common.hpp"
#include "core/mser_correction.hpp"
#include "core/scenario.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"trains", "train", "cross-mbps", "max-mbps", "seed",
                      "csv", "threads", "progress"});
  const int trains = args.get("trains", util::scaled_reps(200));
  const int n = args.get("train", 20);
  const double cross_mbps = args.get("cross-mbps", 4.0);

  core::ScenarioConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", 17));
  cfg.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(cross_mbps), 1500));
  core::Scenario sc(cfg);

  bench::announce("Figure 17", "MSER-2 corrected dispersion measurements",
                  "contender Poisson " + util::Table::format(cross_mbps) +
                      " Mb/s; trains of " + std::to_string(n) + ", " +
                      std::to_string(trains) + " trains per rate");

  util::Table table({"input_mbps", "steady_state_mbps", "train20_mbps",
                     "train20_mser2_mbps", "truncated_gaps"});
  std::vector<std::vector<double>> rows;
  for (double ri = 1.0; ri <= args.get("max-mbps", 10.0) + 1e-9; ri += 1.0) {
    const auto steady = sc.run_steady_state(
        BitRate::mbps(ri), 1500, TimeNs::sec(9), TimeNs::sec(1));

    traffic::TrainSpec spec;
    spec.n = n;
    spec.size_bytes = 1500;
    spec.gap = BitRate::mbps(ri).gap_for(1500);
    core::SimTransport transport(cfg);
    core::EnsembleGapCorrector corrector(n);
    for (int t = 0; t < trains; ++t) {
      const core::TrainResult r = transport.send_train(spec);
      if (r.complete()) {
        corrector.add_train(r.receive_times_s());
      }
    }
    const core::CorrectedGap g = corrector.corrected(2);
    rows.push_back({ri, steady.probe.to_mbps(),
                    1500 * 8.0 / g.raw_gap_s / 1e6,
                    1500 * 8.0 / g.corrected_gap_s / 1e6,
                    static_cast<double>(g.truncated)});
    table.add_row(rows.back());
  }
  bench::emit(table, args, rows);
  std::cout << "# expect: mser2 column closer to steady_state than the raw "
               "train20 column above the fair share\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("fig17_mser_correction", run, argc, argv);
}
