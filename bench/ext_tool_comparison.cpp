// Extension (Section 7.2): "tools designed to measure available
// bandwidth in wired environments in fact measure achievable throughput
// in CSMA/CA links."  The paper illustrates this with [25]'s Fig 4; here
// we regenerate the comparison with the repository's own tool
// implementations, all driven through the unified core::MeasurementMethod
// interface: the cross-traffic rate × method grid is one
// exp::run_method_campaign, so the whole comparison parallelizes across
// --threads while every (cell, repetition) stays seeded from
// (campaign seed, cell index, repetition) alone — the printed table is
// byte-identical for any thread count.
//
// Columns: ground-truth available bandwidth A = C - cross (analytic) and
// achievable throughput B (the steady_state method), then one column per
// wired-path tool.  Every tool column tracks B, none tracks A.
//
// --format=json emits one JSON line per (cell, repetition) tool run
// instead of the table; --csv/--jsonl sink the same per-run rows.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/method.hpp"
#include "exp/collector.hpp"
#include "exp/engine.hpp"
#include "stats/summary.hpp"
#include "util/require.hpp"

using namespace csmabw;

namespace {

void run(bench::Bench& b, const util::Args& args) {
  const std::string format = args.get("format", "table");
  CSMABW_REQUIRE(format == "table" || format == "json",
                 "--format must be table or json");
  const bool json = format == "json";

  const int trains = args.get("trains", 3);
  const int pairs = args.get("pairs", 100);

  const std::vector<double> cross_rates = args.get_doubles(
      "cross-mbps", {0.5, 1.25, 2.0, 2.75, 3.5, 4.25, 5.0});
  exp::SweepSpec spec;
  spec.campaign_seed = static_cast<std::uint64_t>(args.get("seed", 72));
  spec.scenarios.clear();
  for (double cross : cross_rates) {
    spec.scenarios.push_back(bench::poisson_scenario(cross));
  }
  spec.train_lengths = {40};
  spec.probe_mbps = {5.0};
  spec.repetitions =
      bench::count_flag(args, "reps", util::scaled_reps(1), 1);
  // Method axis: ground truth B first, then the wired-path tools.  The
  // per-tool knobs mirror the pre-engine serial version of this bench.
  spec.methods = {
      "steady_state",
      "train_sweep:train_length=40,trains_per_rate=" +
          std::to_string(trains) + ",grid=6",
      "bisection:train_length=40,trains_per_rate=" + std::to_string(trains),
      "slops:train_length=50,trains_per_rate=" + std::to_string(trains),
      "packet_pair:pairs=" + std::to_string(pairs),
  };
  const exp::Campaign campaign(spec);

  const double capacity =
      mac::PhyParams::dot11b_short().saturation_rate(1500).to_mbps();

  if (!json) {
    b.announce(
        "Extension (Sec 7.2)",
        "available-bandwidth tools follow B, not A, on CSMA/CA links",
        std::to_string(cross_rates.size()) + " cross rates x " +
            std::to_string(spec.methods.size()) + " methods x " +
            std::to_string(spec.repetitions) + " repetitions, one campaign");
  }

  const std::vector<exp::MethodRun> runs = b.run_methods(campaign);

  // Per-run rows to the machine-readable sinks.
  exp::CollectorOptions copts;
  copts.csv_path = args.get("csv", "");
  copts.jsonl_path = args.get("jsonl", "");
  if (json) {
    copts.jsonl_stream = &std::cout;
  }
  exp::Collector collector(exp::Collector::method_columns(), copts);
  std::vector<stats::RunningStat> per_cell(
      static_cast<std::size_t>(campaign.size()));
  for (const exp::MethodRun& run : runs) {
    const exp::Cell& cell =
        campaign.cells()[static_cast<std::size_t>(run.cell_index)];
    collector.add(exp::Collector::method_row(cell, run.repetition,
                                             run.report));
    per_cell[static_cast<std::size_t>(run.cell_index)].add(
        run.report.estimate_bps / 1e6);
  }

  if (json) {
    return;
  }

  // Pivot: one console row per cross rate, one column per method (cells
  // expand cross-major with the method axis innermost).
  const int n_methods = static_cast<int>(spec.methods.size());
  CSMABW_REQUIRE(campaign.size() ==
                     static_cast<int>(cross_rates.size()) * n_methods,
                 "unexpected campaign shape");
  util::Table table({"cross_mbps", "avail_A_mbps", "achievable_B_mbps",
                     "train_sweep_mbps", "bisection_mbps", "slops_owd_mbps",
                     "packet_pair_mbps"});
  for (std::size_t c = 0; c < cross_rates.size(); ++c) {
    const double cross = cross_rates[c];
    std::vector<double> row{cross, capacity - cross};
    for (int m = 0; m < n_methods; ++m) {
      row.push_back(
          per_cell[c * static_cast<std::size_t>(n_methods) +
                   static_cast<std::size_t>(m)]
              .mean());
    }
    table.add_row(row);
  }
  table.print(std::cout);
  if (!copts.csv_path.empty()) {
    std::cout << "# csv written: " << copts.csv_path << "\n";
  }
  if (!copts.jsonl_path.empty()) {
    std::cout << "# jsonl written: " << copts.jsonl_path << "\n";
  }
  std::cout << "# expect: every tool column tracks B (and overshoots it), "
               "none tracks A\n";
}

}  // namespace

int main(int argc, char** argv) {
  return bench::main("ext_tool_comparison", run, argc, argv, "format",
                     "trains", "pairs", "seed", "cross-mbps", "reps", "jsonl");
}
