#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/method.hpp"
#include "exp/sweep.hpp"
#include "stats/summary.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace csmabw::exp {

struct TrainCellStats;

/// A collector cell value: a number or a label (e.g. a PHY preset name).
using Value = util::Value;

struct CollectorOptions {
  /// CSV output path; empty disables the CSV sink.
  std::string csv_path;
  /// JSON-lines output path; empty disables the JSONL sink.
  std::string jsonl_path;
  /// Additional JSONL sink to an existing stream (not owned), e.g.
  /// std::cout for --format=json; nullptr disables it.
  std::ostream* jsonl_stream = nullptr;
};

/// Row-streaming result sink of a campaign.
///
/// Rows must be appended in cell order (the runner hands merged cell
/// results back index-ordered), which makes every sink's byte output
/// independent of the worker-thread count.  Alongside the streams the
/// collector folds each numeric column into a stats::RunningStat, giving
/// campaign-level summaries (min/mean/max across cells) for free.
class Collector {
 public:
  Collector(std::vector<std::string> columns, CollectorOptions opts = {});

  void add(const std::vector<Value>& row);

  [[nodiscard]] int rows() const { return static_cast<int>(rows_); }
  [[nodiscard]] const std::vector<std::string>& columns() const {
    return columns_;
  }
  /// Summary of numeric column `i` across all added rows (string and
  /// non-finite cells are skipped).
  [[nodiscard]] const stats::RunningStat& column_stat(int i) const;

  /// The rows as an aligned console table.
  [[nodiscard]] const util::Table& table() const { return table_; }

  /// The standard coordinate prefix for per-cell rows: cell, scenario
  /// ("-" for hand-built cells without a label), contenders, cross_mbps
  /// (the contenders' total offered load), phy, train_len, probe_mbps,
  /// fifo.
  [[nodiscard]] static std::vector<std::string> cell_columns();
  [[nodiscard]] static std::vector<Value> cell_coords(const Cell& cell);

  /// The metric columns of a train-campaign cell (reps_used ...
  /// transient_pkts_tol<tol>), printed by campaign_sweep and by
  /// `trace_tool query --agg=delay`, and one cell's values for them; a
  /// cell without complete trains gets NaN metrics (null in JSONL).
  [[nodiscard]] static std::vector<std::string> train_columns(double tol);
  [[nodiscard]] static std::vector<Value> train_metrics(
      const TrainCellStats& stats, int size_bytes, double tol);

  /// The standard schema for per-repetition MeasurementReport rows:
  /// cell_columns() + method, rep, estimate_mbps, trains_sent,
  /// probes_sent, trains_lost, curve_points, details.  `details` packs
  /// the report's method-specific metrics as "key=value;..." with
  /// round-trip number formatting, so heterogeneous methods share one
  /// flat row.
  [[nodiscard]] static std::vector<std::string> method_columns();
  [[nodiscard]] static std::vector<Value> method_row(
      const Cell& cell, int repetition,
      const core::MeasurementReport& report);

 private:
  std::vector<std::string> columns_;
  util::Table table_;
  std::vector<stats::RunningStat> column_stats_;
  std::unique_ptr<util::CsvWriter> csv_;
  std::vector<std::unique_ptr<util::JsonlWriter>> jsonl_;
  int rows_ = 0;
};

}  // namespace csmabw::exp
