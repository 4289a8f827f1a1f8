#pragma once

#include <span>

namespace csmabw::stats {

/// Two-sample Kolmogorov-Smirnov statistic.
///
/// Following the paper (Section 4, footnote 2): when comparing two
/// empirical *discrete* distributions, one of them is converted to a
/// continuous distribution by linear interpolation of its ECDF.  Here the
/// second sample (`reference`, typically the pooled steady-state delays)
/// is interpolated: F(x_(k)) = k / m at its k-th order statistic, linear
/// in between, 0 left of the reference and 1 right of it; repeated
/// values (atoms) stay jumps.  The statistic is the supremum over the
/// real line of |F_sample(x) - F_reference(x)|, which for a step function
/// vs. a piecewise-linear function is attained at a sample jump or a
/// reference kink, so only those points are evaluated.
///
/// Both samples must be non-empty.  Inputs need not be sorted: this
/// sorts copies and calls ks_statistic_sorted.
[[nodiscard]] double ks_statistic(std::span<const double> sample,
                                  std::span<const double> reference);

/// ks_statistic of two samples already sorted ascending (not checked):
/// one merge walk over the distinct values of both, O(n + m).
[[nodiscard]] double ks_statistic_sorted(
    std::span<const double> sorted_sample,
    std::span<const double> sorted_reference);

/// Large-sample two-sided KS rejection threshold at level `alpha`
/// (default 0.05, the paper's 95% confidence line):
///   c(alpha) * sqrt((n + m) / (n * m)),  c(0.05) ~= 1.358.
[[nodiscard]] double ks_threshold(std::size_t n, std::size_t m,
                                  double alpha = 0.05);

}  // namespace csmabw::stats
