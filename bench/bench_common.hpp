#pragma once

// The bench harness.
//
// Every figure, ablation, calibration and extension bench runs its body
// through bench::main: the harness rejects unknown flags (every bench
// also accepts --csv, --threads and --progress), the bench prints a
// header describing the experiment and how it maps to the paper, runs
// its points or repetitions as jobs on the harness's one exp::Runner
// (progress on stderr), and prints the figure's series as an aligned
// table — with --csv=PATH, the same rows as CSV.  Every job is a pure
// function of its index, so stdout is byte-identical at any --threads.
// Ensemble sizes are laptop-scale by default and multiply with
// CSMABW_BENCH_SCALE (the paper used 80 testbed repetitions and 25k-70k
// simulator repetitions).

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "exp/engine.hpp"
#include "exp/progress.hpp"
#include "exp/runner.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "serve/campaign_io.hpp"
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
inline exp::Runner runner_from(const util::Args& args) {
  exp::RunnerOptions opts;
  opts.threads = args.get("threads", 0);
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

/// A figure's rate or load axis: from, from + step, ... while <= to
/// (1e-9 slack).  Accumulates x += step, so a step that is not a binary
/// fraction (0.05 Erlang) keeps the values every figure was printed
/// with.  A non-positive step would never end; it is rejected before
/// any simulation.
inline std::vector<double> grid(double from, double to, double step) {
  if (!(step > 0.0)) {
    throw util::PreconditionError("sweep step must be > 0, got " +
                                  util::Table::format(step));
  }
  std::vector<double> xs;
  for (double x = from; x <= to + 1e-9; x += step) {
    xs.push_back(x);
  }
  return xs;
}

/// Reads the integer flag --name (default `def`), a packet index or
/// count bounded by the train length, and rejects a value outside
/// lo..train before any simulation.
inline int train_index_flag(const util::Args& args, const std::string& name,
                            int def, int lo, int train) {
  const int v = args.get(name, def);
  if (v < lo || v > train) {
    throw util::PreconditionError(
        "--" + name + "=" + std::to_string(v) + " is outside " +
        std::to_string(lo) + "..--train=" + std::to_string(train));
  }
  return v;
}

/// Reads the integer flag --name (default `def`), a count, and rejects
/// a value below `lo` before any simulation.
inline int count_flag(const util::Args& args, const std::string& name,
                      int def, int lo) {
  const int v = args.get(name, def);
  if (v < lo) {
    throw util::PreconditionError("--" + name + "=" + std::to_string(v) +
                                  " must be >= " + std::to_string(lo));
  }
  return v;
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

/// One bench run: its flags, its worker pool and its table.  Every job
/// list it runs draws a stderr progress line labelled by the tool name.
class Bench {
 public:
  Bench(const util::Args& args, std::string tool)
      : tool_(std::move(tool)),
        show_progress_(progress_enabled(args)),
        csv_path_(args.get("csv", "")),
        runner_(runner_from(args)) {}

  [[nodiscard]] int threads() const { return runner_.threads(); }

  /// The header: the figure, what it shows and the experiment's setup.
  void announce(const std::string& figure, const std::string& what,
                const std::string& setup) const {
    announce_to(std::cout, figure, what, setup);
  }

  /// Runs fn(i) for every i in [0, jobs) as runner jobs and returns the
  /// results by index.  Each job must build its own cells (a const
  /// core::Scenario call or a fresh transport) from its own seed.
  template <typename F>
  [[nodiscard]] auto map(std::size_t jobs, F&& fn) const {
    exp::Progress progress(static_cast<std::int64_t>(jobs), tool_,
                           show_progress_);
    return runner_.map(static_cast<int>(jobs), [&](int i) {
      auto result = fn(static_cast<std::size_t>(i));
      progress.tick();
      return result;
    });
  }

  /// Computes the table's rows as runner jobs: row i is fn(i).
  template <typename F>
  void map_rows(std::size_t jobs, F&& fn) {
    for (std::vector<double>& r : map(jobs, std::forward<F>(fn))) {
      rows_.push_back(std::move(r));
    }
  }

  /// Runs a train campaign, one runner job per repetition.
  [[nodiscard]] std::vector<exp::TrainCellStats> run(
      const exp::Campaign& campaign, const exp::TrainCampaignConfig& cfg,
      serve::CampaignServeOptions io = {}) const {
    exp::Progress progress(campaign.total_repetitions(), tool_, show_progress_);
    io.progress = &progress;
    return exp::run_train_campaign(campaign, cfg, runner_, io);
  }

  /// Runs a method campaign, one runner job per tool run.
  [[nodiscard]] std::vector<exp::MethodRun> run_methods(
      const exp::Campaign& campaign) const {
    exp::Progress progress(campaign.total_repetitions(), tool_, show_progress_);
    serve::CampaignServeOptions io;
    io.progress = &progress;
    return exp::run_method_campaign(campaign, exp::MethodCampaignConfig{},
                                    runner_, io);
  }

  /// Starts the table: one column per plotted series.
  void columns(std::vector<std::string> names) {
    columns_ = std::move(names);
  }
  void row(std::vector<double> cells) { rows_.push_back(std::move(cells)); }

  /// Prints the table and mirrors its rows to --csv=PATH if given (the
  /// first CSV row carries the column names).
  void emit() const {
    util::Table table(columns_);
    for (const std::vector<double>& r : rows_) {
      table.add_row(r);
    }
    table.print(std::cout);
    if (csv_path_.empty()) {
      return;
    }
    util::CsvWriter csv(csv_path_);
    csv.row(columns_);
    for (const std::vector<double>& r : rows_) {
      csv.row(r);
    }
    std::cout << "# csv written: " << csv_path_ << "\n";
  }

 private:
  std::string tool_;
  bool show_progress_;
  std::string csv_path_;
  exp::Runner runner_;
  std::vector<std::string> columns_;
  std::vector<std::vector<double>> rows_;
};

/// A bench's `main`: runs `body` through util::run_tool (a bad flag or
/// value ends it with one `<tool>: error:` line and exit 2), after
/// rejecting every flag that is neither one of `flags` nor --csv,
/// --threads or --progress.
template <typename... Flag>
int main(const char* tool, void (*body)(Bench&, const util::Args&),
         int argc, char** argv, Flag... flags) {
  // util::run_tool calls a plain function; the flags and the body reach
  // it through this slot.
  static std::function<int(int, char**)> run;
  run = [=](int ac, char** av) {
    const util::Args args(ac, av);
    args.require_known({"csv", "threads", "progress", flags...});
    Bench bench(args, tool);
    body(bench, args);
    return 0;
  };
  return util::run_tool(
      tool, [](int ac, char** av) { return run(ac, av); }, argc, argv);
}

/// One input rate of the short-train figures (13 and 15): the rate, the
/// steady-state probe throughput, then the rate that trains of 3, 10 and
/// 50 packets of 1500 B measure over `trains` Poisson-spaced trains.
inline std::vector<double> short_train_row(const core::Scenario& sc,
                                           double mbps, int trains) {
  std::vector<double> row{mbps};
  row.push_back(sc.run_steady_state(BitRate::mbps(mbps), 1500,
                                    TimeNs::sec(9), TimeNs::sec(1))
                    .probe.to_mbps());
  for (int n : {3, 10, 50}) {
    traffic::TrainSpec spec;
    spec.n = n;
    spec.size_bytes = 1500;
    spec.gap = BitRate::mbps(mbps).gap_for(1500);
    const auto seq = sc.run_train_sequence(spec, trains, TimeNs::ms(40),
                                           static_cast<std::uint64_t>(n));
    row.push_back(1500 * 8.0 / seq.mean_gap_s() / 1e6);
  }
  return row;
}

/// The transient summary of a train campaign over topologies: the cell
/// names, one row per cell keyed by `keys` (mirrored to --csv), then the
/// mean access delay at each train position in `positions` below the
/// train length (each printed once), one column per cell after
/// `position_columns[0]`.
inline void transient_tables(Bench& bench, const exp::Campaign& campaign,
                             const std::vector<exp::TrainCellStats>& results,
                             const std::string& key_column,
                             const std::vector<double>& keys,
                             std::vector<std::string> position_columns,
                             const std::vector<int>& positions) {
  for (const exp::Cell& cell : campaign.cells()) {
    std::cout << "# cell " << cell.index << ": " << cell.scenario_name
              << "\n";
  }
  bench.columns({key_column, "stations", "reps_used", "dropped",
                 "first_delay_ms", "steady_delay_ms", "ks_first",
                 "transient_tol0.1", "rate_mbps"});
  for (const exp::Cell& cell : campaign.cells()) {
    const auto i = static_cast<std::size_t>(cell.index);
    const exp::TrainCellStats& r = results[i];
    bench.row({keys[i], static_cast<double>(cell.contenders + 1),
               static_cast<double>(r.used), static_cast<double>(r.dropped),
               r.analyzer.mean_at(0) * 1e3, r.analyzer.steady_mean() * 1e3,
               r.analyzer.ks_at(0),
               static_cast<double>(r.analyzer.transient_length(0.1)),
               r.measured_rate_mbps(cell.train.size_bytes)});
  }
  bench.emit();

  const int train = campaign.cells().front().train.n;
  util::Table table(std::move(position_columns));
  std::set<int> printed;
  for (int k : positions) {
    if (k >= train || !printed.insert(k).second) {
      continue;
    }
    std::vector<double> row{static_cast<double>(k)};
    for (const exp::TrainCellStats& r : results) {
      row.push_back(r.analyzer.mean_at(k) * 1e3);
    }
    table.add_row(row);
  }
  table.print(std::cout);
}

}  // namespace csmabw::bench
