#include "exp/progress.hpp"

#include <iostream>

#include "obs/clock.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace csmabw::exp {

namespace {
constexpr std::int64_t kPrintIntervalNs = 200'000'000;  // 200 ms
}  // namespace

Progress::Progress(std::int64_t total, std::string label, bool enabled,
                   std::ostream* os)
    : total_(total),
      label_(std::move(label)),
      enabled_(enabled),
      os_(os != nullptr ? os : &std::cerr),
      start_ns_(obs::now_ns()),
      last_print_ns_(start_ns_ - kPrintIntervalNs) {
  CSMABW_REQUIRE(total >= 0, "progress total must be >= 0");
}

Progress::~Progress() { finish(); }

void Progress::tick(std::int64_t n) {
  std::scoped_lock lock(mu_);
  done_ += n;
  // The compute clock starts at the first computed tick, so cached
  // prefixes (cache startup) never dilute the rate estimate.
  // With no cached prefix the whole run elapsed *is* compute time, so
  // anchor at construction — identical to the classic estimate.
  if (compute_start_ns_ < 0) {
    compute_start_ns_ = cached_ == 0 ? start_ns_ : obs::now_ns();
  }
  if (!enabled_) {
    return;
  }
  const std::int64_t now = obs::now_ns();
  if (now - last_print_ns_ >= kPrintIntervalNs) {
    last_print_ns_ = now;
    print_locked(/*final_line=*/false);
  }
}

void Progress::tick_cached(std::int64_t n) {
  std::scoped_lock lock(mu_);
  done_ += n;
  cached_ += n;
  if (!enabled_) {
    return;
  }
  const std::int64_t now = obs::now_ns();
  if (now - last_print_ns_ >= kPrintIntervalNs) {
    last_print_ns_ = now;
    print_locked(/*final_line=*/false);
  }
}

void Progress::finish() {
  std::scoped_lock lock(mu_);
  if (finished_) {
    return;
  }
  finished_ = true;
  if (enabled_) {
    print_locked(/*final_line=*/true);
  }
}

std::int64_t Progress::done() const {
  std::scoped_lock lock(mu_);
  return done_;
}

std::int64_t Progress::cached() const {
  std::scoped_lock lock(mu_);
  return cached_;
}

double Progress::eta_seconds() const {
  std::scoped_lock lock(mu_);
  return eta_locked(obs::now_ns());
}

double Progress::eta_locked(std::int64_t now) const {
  const std::int64_t computed = done_ - cached_;
  if (computed <= 0 || done_ >= total_ || compute_start_ns_ < 0) {
    return -1.0;
  }
  // Rate over the compute window only: (now - first computed tick's
  // start) / computed units, extrapolated over the remaining units.
  const double compute_elapsed_s =
      static_cast<double>(now - compute_start_ns_) / 1e9;
  return compute_elapsed_s * static_cast<double>(total_ - done_) /
         static_cast<double>(computed);
}

void Progress::print_locked(bool final_line) {
  const std::int64_t now = obs::now_ns();
  const double elapsed_s = static_cast<double>(now - start_ns_) / 1e9;
  const double pct =
      total_ > 0 ? 100.0 * static_cast<double>(done_) /
                       static_cast<double>(total_)
                 : 100.0;
  *os_ << '\r' << label_ << ' ' << done_ << '/' << total_ << " ("
       << util::Table::format(pct, 1) << "%) elapsed "
       << util::Table::format(elapsed_s, 1) << "s";
  // ETA extrapolates from *computed* units over the compute clock (see
  // eta_locked): cached repetitions finish in microseconds and
  // contribute neither units nor elapsed time to the estimate.
  const double eta_s = eta_locked(now);
  if (!final_line && eta_s >= 0.0) {
    *os_ << " eta " << util::Table::format(eta_s, 1) << "s";
  }
  if (final_line && cached_ > 0) {
    *os_ << " cached=" << cached_ << " computed=" << done_ - cached_;
  }
  *os_ << "   ";
  if (final_line) {
    *os_ << '\n';
  }
  os_->flush();
}

}  // namespace csmabw::exp
