#pragma once

// Shared plumbing for the per-figure bench binaries.
//
// Every bench prints: a header describing the experiment and how it maps
// to the paper, the figure's series as an aligned table, and (with
// --csv=PATH) the same series as CSV.  Ensemble sizes are laptop-scale
// by default and multiply with CSMABW_BENCH_SCALE (the paper used 80
// testbed repetitions and 25k-70k simulator repetitions).

#include <unistd.h>

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "exp/progress.hpp"
#include "exp/runner.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace csmabw::bench {

/// Whether campaign progress lines should be drawn: forced by
/// --progress / suppressed by --progress=0, defaulting to "stderr is a
/// terminal".  Progress goes to stderr, so stdout stays byte-identical
/// either way.
inline bool progress_enabled(const util::Args& args) {
  return args.get("progress", isatty(STDERR_FILENO) == 1);
}

/// Builds the campaign worker pool from --threads (0 = CSMABW_THREADS
/// env, else hardware concurrency).
inline exp::Runner runner_from(const util::Args& args,
                               exp::Progress* progress = nullptr) {
  exp::RunnerOptions opts;
  opts.threads = args.get("threads", 0);
  opts.progress = progress;
  return exp::Runner(opts);
}

/// The scenario-grammar entry of the paper's Fig 2 cell at another load:
/// one Poisson contender at `cross_mbps`, spelled as
/// core::StationSpec::poisson spells it, so the cell's cache key equals
/// the one built from the same StationSpec directly.
inline std::string poisson_scenario(double cross_mbps) {
  core::ScenarioSpec scenario;
  scenario.contenders.push_back(
      core::StationSpec::poisson(BitRate::mbps(cross_mbps)));
  return scenario.describe();
}

inline void announce_to(std::ostream& out, const std::string& figure,
                        const std::string& what, const std::string& setup) {
  out << "# " << figure << " — " << what << "\n";
  out << "# setup: " << setup << "\n";
  out << "# scale: CSMABW_BENCH_SCALE=" << util::bench_scale()
      << " (multiply to approach the paper's ensemble sizes)\n";
}

inline void announce(const std::string& figure, const std::string& what,
                     const std::string& setup) {
  announce_to(std::cout, figure, what, setup);
}

/// The observability surface of one bench run: `--metrics-out=FILE`
/// enables the metrics registry and writes a csmabw-run-report JSON on
/// finish(); `--prof=FILE` enables the span profiler and writes a
/// Chrome/Perfetto trace.  `--obs` enables the registry without a
/// report file (counters still feed stderr summaries).  All outputs go
/// to their own files, never stdout — simulation output is byte-
/// identical with observability on or off.
class ObsState {
 public:
  /// `force_metrics` enables the registry even without --metrics-out /
  /// --obs — for tools whose stderr summaries read registry counters
  /// (e.g. campaign_sweep's "# serve:" line).
  explicit ObsState(const util::Args& args, std::string tool,
                    bool force_metrics = false)
      : tool_(std::move(tool)),
        metrics_path_(args.get("metrics-out", "")),
        prof_path_(args.get("prof", "")),
        registry_(!metrics_path_.empty() || args.get("obs", false) ||
                  force_metrics),
        profiler_(!prof_path_.empty()),
        start_ns_(obs::now_ns()) {}

  [[nodiscard]] obs::Registry* metrics() {
    return registry_.enabled() ? &registry_ : nullptr;
  }
  [[nodiscard]] obs::Profiler* profiler() {
    return profiler_.enabled() ? &profiler_ : nullptr;
  }
  [[nodiscard]] obs::Registry& registry() { return registry_; }

  /// Writes the report/trace files (when requested) with a one-line
  /// stderr note each.  Call once, after the workers drain.
  void finish(const std::vector<obs::CellObs>& cells, int threads) {
    if (!metrics_path_.empty()) {
      obs::RunReportOptions opts;
      opts.tool = tool_;
      opts.threads = threads;
      opts.wall_ns = obs::now_ns() - start_ns_;
      std::ofstream out(metrics_path_, std::ios::trunc);
      CSMABW_REQUIRE(static_cast<bool>(out),
                     "cannot open --metrics-out file: " + metrics_path_);
      obs::write_run_report(out, registry_, cells, opts);
      CSMABW_REQUIRE(static_cast<bool>(out),
                     "--metrics-out write failed: " + metrics_path_);
      std::cerr << "# metrics report written: " << metrics_path_ << "\n";
    }
    if (!prof_path_.empty()) {
      std::ofstream out(prof_path_, std::ios::trunc);
      CSMABW_REQUIRE(static_cast<bool>(out),
                     "cannot open --prof file: " + prof_path_);
      profiler_.write_chrome_trace(out);
      CSMABW_REQUIRE(static_cast<bool>(out),
                     "--prof write failed: " + prof_path_);
      std::cerr << "# profile written: " << prof_path_ << " (open in "
                << "ui.perfetto.dev; spans=" << profiler_.recorded();
      if (profiler_.dropped() > 0) {
        std::cerr << " dropped=" << profiler_.dropped();
      }
      std::cerr << ")\n";
    }
  }

 private:
  std::string tool_;
  std::string metrics_path_;
  std::string prof_path_;
  obs::Registry registry_;
  obs::Profiler profiler_;
  std::int64_t start_ns_;
};

/// Prints the table and mirrors the numeric rows to --csv=PATH if given
/// (first CSV row carries the column names).
inline void emit(const util::Table& table, const util::Args& args,
                 const std::vector<std::vector<double>>& rows) {
  table.print(std::cout);
  const std::string path = args.get("csv", "");
  if (path.empty()) {
    return;
  }
  util::CsvWriter csv(path);
  csv.row(std::vector<std::string>(table.columns().begin(),
                                   table.columns().end()));
  for (const auto& r : rows) {
    csv.row(r);
  }
  std::cout << "# csv written: " << path << "\n";
}

}  // namespace csmabw::bench
