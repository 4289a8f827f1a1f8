#include "core/owd_trend.hpp"

#include <cmath>

#include "util/require.hpp"

namespace csmabw::core {

OwdTrend owd_trend(std::span<const double> owd_s) {
  CSMABW_REQUIRE(owd_s.size() >= 3, "trend test needs >= 3 delays");
  int increases = 0;
  int comparisons = 0;
  double total_variation = 0.0;
  for (std::size_t i = 1; i < owd_s.size(); ++i) {
    const double diff = owd_s[i] - owd_s[i - 1];
    if (diff != 0.0) {
      ++comparisons;
      if (diff > 0.0) {
        ++increases;
      }
      total_variation += std::abs(diff);
    }
  }
  OwdTrend t;
  t.pct = comparisons > 0
              ? static_cast<double>(increases) / comparisons
              : 0.5;  // perfectly flat: no evidence either way
  t.pdt = total_variation > 0.0
              ? (owd_s.back() - owd_s.front()) / total_variation
              : 0.0;
  return t;
}

std::vector<double> one_way_delays_s(const TrainResult& train) {
  CSMABW_REQUIRE(train.complete(), "train incomplete");
  std::vector<double> owd;
  owd.reserve(train.packets.size());
  for (const auto& p : train.packets) {
    owd.push_back(p.recv_s - p.send_s);
  }
  return owd;
}

TrendVerdict classify_trend(const OwdTrend& t) {
  if (t.pct > 0.66 || t.pdt > 0.55) {
    return TrendVerdict::kIncreasing;
  }
  if (t.pct < 0.54 && t.pdt < 0.45) {
    return TrendVerdict::kNonIncreasing;
  }
  return TrendVerdict::kAmbiguous;
}

}  // namespace csmabw::core
