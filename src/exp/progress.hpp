#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>

namespace csmabw::exp {

/// Thread-safe progress/ETA reporter for long campaigns.
///
/// Writes carriage-return status lines ("label 42/96 (44%) eta 12s") to
/// a stream — stderr by default, so that bench stdout (tables, CSV
/// mirrors) stays machine-parseable and byte-identical whether or not
/// progress is shown.  Prints are rate-limited; `tick()` is cheap enough
/// to call once per repetition from every worker thread.
///
/// Timing uses the observability clock source (obs::now_ns), and the
/// ETA extrapolates from a *compute clock* that starts at the first
/// computed (non-cached) tick: a re-run that serves its first ten
/// thousand repetitions from the result cache in milliseconds must not
/// divide that startup elapsed over the few remaining simulated reps
/// and report an absurd ETA.
class Progress {
 public:
  /// `total`: number of work units; `enabled == false` makes every call
  /// a no-op (the default for tests and non-interactive runs).
  Progress(std::int64_t total, std::string label, bool enabled,
           std::ostream* os = nullptr);
  ~Progress();

  Progress(const Progress&) = delete;
  Progress& operator=(const Progress&) = delete;

  void tick(std::int64_t n = 1);
  /// Ticks `n` units that were pre-completed (served from the result
  /// cache) rather than computed.  They count
  /// toward `done()` but are excluded from the ETA's rate estimate —
  /// near-instantaneous cache hits must not make the remaining real
  /// work look instantaneous too.  The final line reports them as
  /// `cached=X computed=Y`.
  void tick_cached(std::int64_t n = 1);
  /// Prints the final line (with newline) once; idempotent.
  void finish();

  [[nodiscard]] std::int64_t done() const;
  [[nodiscard]] std::int64_t cached() const;
  [[nodiscard]] std::int64_t total() const { return total_; }

  /// ETA in seconds as the reporter would print it right now, or a
  /// negative value when no estimate exists yet (nothing computed, or
  /// the run is complete).  Exposed for tests: the compute-clock fix is
  /// observable without scraping the status line.
  [[nodiscard]] double eta_seconds() const;

 private:
  void print_locked(bool final_line);
  [[nodiscard]] double eta_locked(std::int64_t now) const;

  std::int64_t total_;
  std::string label_;
  bool enabled_;
  std::ostream* os_;
  mutable std::mutex mu_;
  std::int64_t done_ = 0;
  std::int64_t cached_ = 0;
  bool finished_ = false;
  std::int64_t start_ns_;
  std::int64_t compute_start_ns_ = -1;  ///< first computed tick; -1 = none
  std::int64_t last_print_ns_;
};

}  // namespace csmabw::exp
