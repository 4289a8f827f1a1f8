#include "core/transient.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "stats/ks_test.hpp"
#include "util/require.hpp"

namespace csmabw::core {

TransientAnalyzer::TransientAnalyzer(TransientConfig cfg)
    : cfg_(std::move(cfg)) {
  const int n = cfg_.train_length;
  CSMABW_REQUIRE(n >= 2, "train too short");
  CSMABW_REQUIRE(cfg_.ks_prefix >= 0 && cfg_.ks_prefix <= n,
                 "ks_prefix must be within [0, train_length]");
  CSMABW_REQUIRE(cfg_.steady_tail >= 1 && cfg_.steady_tail <= n,
                 "steady_tail must be within [1, train_length]");
  std::vector<int>& extra = cfg_.extra_raw_indices;
  std::sort(extra.begin(), extra.end());
  extra.erase(std::unique(extra.begin(), extra.end()), extra.end());
  // Indices already covered by the prefix would duplicate storage.
  std::erase_if(extra, [this](int i) { return i < cfg_.ks_prefix; });
  CSMABW_REQUIRE(extra.empty() || extra.back() < n,
                 "extra raw index out of range");
  per_index_.resize(static_cast<std::size_t>(n));
  samples_.resize(static_cast<std::size_t>(cfg_.ks_prefix) + extra.size());
}

void TransientAnalyzer::add_repetition(
    std::span<const double> access_delays_s) {
  CSMABW_REQUIRE(
      access_delays_s.size() == static_cast<std::size_t>(cfg_.train_length),
      "repetition length mismatch");
  for (double v : access_delays_s) {
    CSMABW_REQUIRE(std::isfinite(v) && v >= 0.0,
                   "access delays must be finite and non-negative");
  }
  for (std::size_t i = 0; i < per_index_.size(); ++i) {
    per_index_[i].add(access_delays_s[i]);
  }
  const auto prefix = static_cast<std::size_t>(cfg_.ks_prefix);
  for (std::size_t i = 0; i < prefix; ++i) {
    samples_[i].push_back(access_delays_s[i]);
  }
  for (std::size_t k = 0; k < cfg_.extra_raw_indices.size(); ++k) {
    samples_[prefix + k].push_back(access_delays_s[static_cast<std::size_t>(
        cfg_.extra_raw_indices[k])]);
  }
  for (double v : access_delays_s.last(
           static_cast<std::size_t>(cfg_.steady_tail))) {
    steady_pool_.push_back(v);
    steady_stat_.add(v);
  }
  ++reps_;
}

void TransientAnalyzer::merge(const TransientAnalyzer& other) {
  CSMABW_REQUIRE(other.cfg_ == cfg_,
                 "cannot merge analyzers with different configurations");
  for (std::size_t i = 0; i < per_index_.size(); ++i) {
    per_index_[i].merge(other.per_index_[i]);
  }
  for (std::size_t k = 0; k < samples_.size(); ++k) {
    samples_[k].insert(samples_[k].end(), other.samples_[k].begin(),
                       other.samples_[k].end());
  }
  steady_pool_.insert(steady_pool_.end(), other.steady_pool_.begin(),
                      other.steady_pool_.end());
  steady_stat_.merge(other.steady_stat_);
  reps_ += other.reps_;
}

double TransientAnalyzer::mean_at(int i) const {
  CSMABW_REQUIRE(i >= 0 && i < cfg_.train_length, "index out of range");
  return per_index_[static_cast<std::size_t>(i)].mean();
}

std::vector<double> TransientAnalyzer::mean_curve() const {
  std::vector<double> out;
  out.reserve(per_index_.size());
  for (const stats::RunningStat& s : per_index_) {
    out.push_back(s.mean());
  }
  return out;
}

std::span<const double> TransientAnalyzer::sample_at(int i) const {
  if (i >= 0 && i < cfg_.ks_prefix) {
    return samples_[static_cast<std::size_t>(i)];
  }
  const std::vector<int>& extra = cfg_.extra_raw_indices;
  const auto it = std::lower_bound(extra.begin(), extra.end(), i);
  CSMABW_REQUIRE(it != extra.end() && *it == i,
                 "raw samples were not retained for this index");
  return samples_[static_cast<std::size_t>(cfg_.ks_prefix) +
                  static_cast<std::size_t>(it - extra.begin())];
}

double TransientAnalyzer::ks_at(int i) const {
  return stats::ks_statistic(sample_at(i), steady_pool_);
}

double TransientAnalyzer::ks_threshold_at(int i) const {
  return stats::ks_threshold(sample_at(i).size(), steady_pool_.size());
}

std::vector<double> TransientAnalyzer::ks_curve() const {
  std::vector<double> pool(steady_pool_);
  std::sort(pool.begin(), pool.end());
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(cfg_.ks_prefix));
  std::vector<double> sample;
  for (int i = 0; i < cfg_.ks_prefix; ++i) {
    sample = samples_[static_cast<std::size_t>(i)];
    std::sort(sample.begin(), sample.end());
    out.push_back(stats::ks_statistic_sorted(sample, pool));
  }
  return out;
}

int TransientAnalyzer::transient_length(double tol, int window) const {
  CSMABW_REQUIRE(tol > 0.0, "tolerance must be positive");
  CSMABW_REQUIRE(window >= 1, "window must be >= 1");
  const double target = steady_mean();
  CSMABW_REQUIRE(target > 0.0, "steady-state mean must be positive");

  const int n = cfg_.train_length;
  int within = 0;
  for (int i = 0; i < n; ++i) {
    const double rel = std::abs(mean_at(i) - target) / target;
    if (rel <= tol) {
      ++within;
      if (within >= window) {
        return i - window + 2;  // 1-based index of the first settled packet
      }
    } else {
      within = 0;
    }
  }
  return n;
}

}  // namespace csmabw::core
