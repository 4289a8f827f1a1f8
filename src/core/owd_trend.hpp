#pragma once

#include <span>

#include "core/transport.hpp"

namespace csmabw::core {

/// One-way-delay trend statistics of a probe train — the SLoPS machinery
/// of pathload (the paper's reference [17]).
///
/// When a train is sent faster than the path can forward it, the one-way
/// delays of successive packets increase; SLoPS detects that trend and
/// bisects for the largest non-increasing rate.  Section 7.2 of the
/// paper argues such tools, designed to measure available bandwidth on
/// FIFO paths, measure the *achievable throughput* on CSMA/CA links —
/// this module lets the repository demonstrate that claim directly (see
/// the ext_tool_comparison bench).
struct OwdTrend {
  /// Pairwise Comparison Test: fraction of consecutive OWD increases;
  /// ~0.5 for noise, -> 1 under a strong increasing trend.
  double pct = 0.0;
  /// Pairwise Difference Test: net delay change over total variation;
  /// ~0 for noise, -> 1 under a strong increasing trend.
  double pdt = 0.0;
};

/// Verdict of one train, using pathload's published thresholds
/// (increasing: PCT > 0.66 or PDT > 0.55; non-increasing: PCT < 0.54 and
/// PDT < 0.45; anything else is ambiguous).
enum class TrendVerdict { kIncreasing, kNonIncreasing, kAmbiguous };

/// Computes PCT/PDT over a train's one-way delays (recv - send per
/// packet; a constant clock offset between the endpoints cancels).
/// Requires at least 3 delays.
[[nodiscard]] OwdTrend owd_trend(std::span<const double> owd_s);

/// Extracts the one-way delays of a complete train.
[[nodiscard]] std::vector<double> one_way_delays_s(const TrainResult& train);

[[nodiscard]] TrendVerdict classify_trend(const OwdTrend& t);

}  // namespace csmabw::core
