#pragma once

#include <span>
#include <vector>

#include "stats/summary.hpp"

namespace csmabw::core {

/// Configuration of a transient-regime analysis (Section 4).
struct TransientConfig {
  /// Packets per probing sequence (the paper uses 1000).
  int train_length = 1000;
  /// Indices [0, ks_prefix) retain raw samples for per-index KS tests and
  /// histograms (Figs 7-9 look at the first 100-150 packets).
  int ks_prefix = 150;
  /// The pooled steady-state reference uses the last `steady_tail`
  /// indices of every repetition (the paper pools the last 500 packets).
  int steady_tail = 500;
  /// Additional individual indices retaining raw samples — sparse
  /// retention for histograms deep into the train (Fig 7's 500th packet)
  /// without paying for the whole prefix.  The analyzer sorts and
  /// deduplicates them and drops those inside the prefix.
  std::vector<int> extra_raw_indices;

  bool operator==(const TransientConfig&) const = default;
};

/// Accumulates repeated probing sequences and characterizes the
/// transient regime of the access delay.
///
/// For each packet index i it tracks the ensemble distribution of the
/// access delay mu_i across repetitions; the steady-state reference is
/// the pooled delay of the tail packets.  Provides the paper's three
/// diagnostics: the per-index mean (Fig 6), the per-index KS statistic
/// against steady state (Figs 8-9), and the tolerance-based transient
/// length (Fig 10).
class TransientAnalyzer {
 public:
  /// Validates `cfg` (train_length >= 2, ks_prefix within [0,
  /// train_length], steady_tail within [1, train_length], extra indices
  /// below train_length) and keeps it normalized.
  explicit TransientAnalyzer(TransientConfig cfg);

  /// Adds one repetition: the access delays (seconds) of packets
  /// 1..train_length of a probing sequence, in sequence order.  All
  /// values must be finite (discard repetitions with dropped packets
  /// before calling).
  void add_repetition(std::span<const double> access_delays_s);

  /// Merges another analyzer accumulated under the same configuration.
  /// Raw samples and the steady pool are appended in call order, so
  /// merging shards of repetitions [0,k), [k,2k), ... in order reproduces
  /// the sample order of a serial accumulation (see exp::Runner).
  void merge(const TransientAnalyzer& other);

  [[nodiscard]] int repetitions() const { return reps_; }
  /// The normalized configuration.
  [[nodiscard]] const TransientConfig& config() const { return cfg_; }

  /// Ensemble mean access delay of packet index i (0-based).
  [[nodiscard]] double mean_at(int i) const;
  [[nodiscard]] std::vector<double> mean_curve() const;
  /// Mean access delay over the pooled steady-state tail.
  [[nodiscard]] double steady_mean() const { return steady_stat_.mean(); }

  /// Raw ensemble sample of index i (i < ks_prefix or listed in
  /// extra_raw_indices) in repetition order — for histograms.
  [[nodiscard]] std::span<const double> sample_at(int i) const;
  /// The pooled steady-state sample, in repetition order.
  [[nodiscard]] std::span<const double> steady_sample() const {
    return steady_pool_;
  }

  /// KS statistic of index i's ensemble distribution vs. the pooled
  /// steady-state distribution.
  [[nodiscard]] double ks_at(int i) const;
  /// 95% KS rejection threshold for index i's sample sizes.
  [[nodiscard]] double ks_threshold_at(int i) const;
  /// KS statistics for indices [0, ks_prefix), bit-equal to ks_at(i);
  /// sorts the steady pool once for the whole curve.
  [[nodiscard]] std::vector<double> ks_curve() const;

  /// Transient length (Section 4.1): the first index whose ensemble mean
  /// lies within `tol` (relative) of the steady-state mean and stays
  /// within for `window` consecutive indices.  Returns the 1-based packet
  /// count (the paper reports "packets"), or train_length if the series
  /// never settles.
  [[nodiscard]] int transient_length(double tol, int window = 3) const;

 private:
  TransientConfig cfg_;
  int reps_ = 0;
  std::vector<stats::RunningStat> per_index_;
  /// Raw samples of the prefix indices, then of the extra indices.
  std::vector<std::vector<double>> samples_;
  std::vector<double> steady_pool_;
  stats::RunningStat steady_stat_;
};

}  // namespace csmabw::core
