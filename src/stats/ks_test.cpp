#include "stats/ks_test.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/require.hpp"

namespace csmabw::stats {

double ks_statistic(std::span<const double> sample,
                    std::span<const double> reference) {
  std::vector<double> a(sample.begin(), sample.end());
  std::vector<double> b(reference.begin(), reference.end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return ks_statistic_sorted(a, b);
}

double ks_statistic_sorted(std::span<const double> a,
                           std::span<const double> b) {
  CSMABW_REQUIRE(!a.empty(), "KS: empty sample");
  CSMABW_REQUIRE(!b.empty(), "KS: empty reference");
  const auto na = static_cast<double>(a.size());
  const auto nb = static_cast<double>(b.size());
  double d = 0.0;

  // Walk the distinct values x of both samples in increasing order;
  // a[ia, ia_end) and b[ib, ib_end) are the runs equal to x.  Compare
  // right-continuous values with right-continuous values and left limits
  // with left limits: both distributions may carry atoms (e.g. the
  // deterministic DIFS + airtime delay of an uncontended transmission);
  // the intermediate levels inside a jump belong to neither CDF and must
  // not be compared.
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.size() || ib < b.size()) {
    const double x =
        ib == b.size() || (ia < a.size() && a[ia] < b[ib]) ? a[ia] : b[ib];
    std::size_t ia_end = ia;
    while (ia_end < a.size() && a[ia_end] == x) {
      ++ia_end;
    }
    std::size_t ib_end = ib;
    while (ib_end < b.size() && b[ib_end] == x) {
      ++ib_end;
    }

    // The interpolated reference ECDF at x and its left limit.
    double ref = 0.0;
    double ref_left = 0.0;
    if (ib_end > ib) {
      // A reference value: the ECDF jumps over the whole run to
      // ib_end / m; the segment below ramps up to (ib + 1) / m.
      ref = static_cast<double>(ib_end) / nb;
      ref_left = ib == 0 ? 0.0 : static_cast<double>(ib + 1) / nb;
    } else if (ib == b.size()) {
      ref = ref_left = 1.0;  // right of the reference
    } else if (ib > 0) {
      // Strictly between b[ib - 1] and b[ib]: continuous.
      const double x0 = b[ib - 1];
      const double x1 = b[ib];
      const double f0 = static_cast<double>(ib) / nb;
      const double f1 = static_cast<double>(ib + 1) / nb;
      ref = ref_left = f0 + (f1 - f0) * (x - x0) / (x1 - x0);
    }  // else left of the reference: 0

    d = std::max(d, std::abs(static_cast<double>(ia_end) / na - ref));
    d = std::max(d, std::abs(static_cast<double>(ia) / na - ref_left));
    ia = ia_end;
    ib = ib_end;
  }
  return d;
}

double ks_threshold(std::size_t n, std::size_t m, double alpha) {
  CSMABW_REQUIRE(n > 0 && m > 0, "KS threshold needs positive sample sizes");
  CSMABW_REQUIRE(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
  const double c = std::sqrt(-0.5 * std::log(alpha / 2.0));
  const auto nn = static_cast<double>(n);
  const auto mm = static_cast<double>(m);
  return c * std::sqrt((nn + mm) / (nn * mm));
}

}  // namespace csmabw::stats
