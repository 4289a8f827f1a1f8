#pragma once

// Per-(cell, repetition) result records — the payload of every result
// cache entry (serve/result_cache.hpp).
//
// A record captures exactly what the campaign engine feeds its per-cell
// accumulators, with doubles stored as their exact bit patterns, so a
// record served from disk reproduces the engine's merged statistics —
// and therefore every CSV/JSONL byte — identically to a live run.

#include <cstdint>
#include <vector>

#include "core/method.hpp"

namespace csmabw::serve {

/// One probe-train repetition, as consumed by exp::run_train_campaign's
/// accumulation: the dropped flag, per-packet access delays, the
/// train's output gap, and (when sampled) contender 0's queue length at
/// each probe arrival.  For dropped repetitions only the flag is
/// meaningful (the engine skips everything else).
struct TrainRepRecord {
  bool dropped = false;
  std::vector<double> access_delays_s;
  double output_gap_s = 0.0;
  std::vector<double> queue_at_arrival;

  friend bool operator==(const TrainRepRecord&,
                         const TrainRepRecord&) = default;
};

/// Appends the record's binary payload (little-endian, doubles as raw
/// bit patterns) to `out`.
void encode_train_record(const TrainRepRecord& record,
                         std::vector<unsigned char>& out);

/// Decodes a payload produced by encode_train_record; returns false on
/// truncation or trailing garbage (callers treat that as a cache miss
/// or a corrupt-file hard error, depending on the layer).
[[nodiscard]] bool decode_train_record(const unsigned char* data,
                                       std::size_t size,
                                       TrainRepRecord* out);

/// Appends a measurement-method repetition's full report.
void encode_method_record(const core::MeasurementReport& report,
                          std::vector<unsigned char>& out);

[[nodiscard]] bool decode_method_record(const unsigned char* data,
                                        std::size_t size,
                                        core::MeasurementReport* out);

}  // namespace csmabw::serve
