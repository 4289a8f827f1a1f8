// Figure 17: MSER-2 based measurement.  Twenty-packet trains measured
// raw vs with MSER-2 transient truncation applied to the per-index mean
// inter-arrival series, against the steady-state response.  The
// truncated measurement approaches the steady-state curve without
// sending more probes (Section 7.4).
//
// Every input rate is a runner job (--threads N) with its own fresh
// transport, seeded from the scenario seed alone.
#include <iostream>

#include "bench_common.hpp"
#include "core/mser_correction.hpp"
#include "core/scenario.hpp"

using namespace csmabw;

namespace {

void run(bench::Bench& b, const util::Args& args) {
  const int trains =
      bench::count_flag(args, "trains", util::scaled_reps(200), 1);
  const int n = args.get("train", 20);
  const double cross_mbps = args.get("cross-mbps", 4.0);
  const std::vector<double> rates =
      bench::grid(1.0, args.get("max-mbps", 10.0), 1.0);

  core::ScenarioConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", 17));
  cfg.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(cross_mbps), 1500));
  const core::Scenario sc(cfg);

  b.announce("Figure 17", "MSER-2 corrected dispersion measurements",
             "contender Poisson " + util::Table::format(cross_mbps) +
                 " Mb/s; trains of " + std::to_string(n) + ", " +
                 std::to_string(trains) + " trains per rate");

  b.columns({"input_mbps", "steady_state_mbps", "train20_mbps",
             "train20_mser2_mbps", "truncated_gaps"});
  b.map_rows(rates.size(), [&](std::size_t i) {
    const double ri = rates[i];
    const auto steady = sc.run_steady_state(BitRate::mbps(ri), 1500,
                                            TimeNs::sec(9), TimeNs::sec(1));

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
    return std::vector<double>{ri, steady.probe.to_mbps(),
                               1500 * 8.0 / g.raw_gap_s / 1e6,
                               1500 * 8.0 / g.corrected_gap_s / 1e6,
                               static_cast<double>(g.truncated)};
  });
  b.emit();
  std::cout << "# expect: mser2 column closer to steady_state than the raw "
               "train20 column above the fair share\n";
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("fig17_mser_correction", run, argc, argv, "trains",
                     "train", "cross-mbps", "max-mbps", "seed");
}
