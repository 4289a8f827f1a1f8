#include "exp/collector.hpp"

#include <cmath>
#include <limits>

#include "exp/engine.hpp"
#include "util/require.hpp"

namespace csmabw::exp {

Collector::Collector(std::vector<std::string> columns, CollectorOptions opts)
    : columns_(std::move(columns)),
      table_(columns_),
      column_stats_(columns_.size()) {
  CSMABW_REQUIRE(!columns_.empty(), "collector needs at least one column");
  if (!opts.csv_path.empty()) {
    csv_ = std::make_unique<util::CsvWriter>(opts.csv_path);
    csv_->row(columns_);
  }
  if (!opts.jsonl_path.empty()) {
    jsonl_.push_back(std::make_unique<util::JsonlWriter>(opts.jsonl_path));
  }
  if (opts.jsonl_stream != nullptr) {
    jsonl_.push_back(std::make_unique<util::JsonlWriter>(*opts.jsonl_stream));
  }
}

void Collector::add(const std::vector<Value>& row) {
  CSMABW_REQUIRE(row.size() == columns_.size(),
                 "row width does not match the collector columns");
  std::vector<std::string> cells;
  cells.reserve(row.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    cells.push_back(row[i].text());
    // Non-finite metrics (e.g. a cell with no complete trains) would
    // poison the campaign-level min/mean/max.
    if (row[i].is_number() && std::isfinite(row[i].number())) {
      column_stats_[i].add(row[i].number());
    }
  }
  table_.add_row(cells);
  if (csv_) {
    csv_->row(cells);
  }
  if (!jsonl_.empty()) {
    std::vector<std::pair<std::string, Value>> fields;
    fields.reserve(row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      fields.emplace_back(columns_[i], row[i]);
    }
    for (const auto& sink : jsonl_) {
      sink->object(fields);
    }
  }
  ++rows_;
}

const stats::RunningStat& Collector::column_stat(int i) const {
  CSMABW_REQUIRE(i >= 0 && i < static_cast<int>(column_stats_.size()),
                 "column index out of range");
  return column_stats_[static_cast<std::size_t>(i)];
}

std::vector<std::string> Collector::cell_columns() {
  return {"cell",       "scenario",  "contenders", "cross_mbps",
          "phy",        "train_len", "probe_mbps", "fifo"};
}

std::vector<Value> Collector::cell_coords(const Cell& cell) {
  return {Value(cell.index),
          Value(cell.scenario_name.empty() ? "-" : cell.scenario_name),
          Value(cell.contenders),
          Value(cell.cross_mbps),
          Value(cell.phy_preset),
          Value(cell.train_length),
          Value(cell.probe_mbps),
          Value(cell.fifo ? 1 : 0)};
}

std::vector<std::string> Collector::train_columns(double tol) {
  return {"reps_used",       "dropped",
          "mean_gap_ms",     "measured_rate_mbps",
          "first_delay_ms",  "steady_delay_ms",
          "ks_first",        "ks_thresh_95",
          "transient_pkts_tol" + util::json_number(tol)};
}

std::vector<Value> Collector::train_metrics(const TrainCellStats& stats,
                                            int size_bytes, double tol) {
  std::vector<Value> row{stats.used, stats.dropped};
  if (stats.used == 0) {
    // Every repetition dropped a packet: no complete train to measure.
    row.resize(train_columns(tol).size(),
               std::numeric_limits<double>::quiet_NaN());
    return row;
  }
  const core::TransientAnalyzer& a = stats.analyzer;
  row.insert(row.end(), {stats.output_gap_s.mean() * 1e3,
                         stats.measured_rate_mbps(size_bytes),
                         a.mean_at(0) * 1e3, a.steady_mean() * 1e3,
                         a.ks_at(0), a.ks_threshold_at(0),
                         a.transient_length(tol)});
  return row;
}

std::vector<std::string> Collector::method_columns() {
  std::vector<std::string> columns = cell_columns();
  for (const char* name : {"method", "rep", "estimate_mbps", "trains_sent",
                           "probes_sent", "trains_lost", "curve_points",
                           "details"}) {
    columns.emplace_back(name);
  }
  return columns;
}

std::vector<Value> Collector::method_row(
    const Cell& cell, int repetition, const core::MeasurementReport& report) {
  std::string details;
  for (const auto& [key, value] : report.metrics) {
    if (!details.empty()) {
      details += ';';
    }
    details += key;
    details += '=';
    details += util::json_number(value);
  }
  std::vector<Value> row = cell_coords(cell);
  row.emplace_back(cell.method);
  row.emplace_back(repetition);
  row.emplace_back(report.estimate_bps / 1e6);
  row.emplace_back(report.trains_sent);
  row.emplace_back(report.probes_sent);
  row.emplace_back(report.trains_lost);
  row.emplace_back(static_cast<int>(report.curve.points.size()));
  row.emplace_back(details);
  return row;
}

}  // namespace csmabw::exp
