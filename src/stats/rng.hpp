#pragma once

#include <cstdint>
#include <string_view>

#include "stats/lazy_mt64.hpp"

namespace csmabw::stats {

/// Deterministic random stream.
///
/// Every stochastic component in the library draws from an `Rng` it is
/// handed explicitly — there is no hidden global generator — so a whole
/// experiment is reproducible bit-for-bit from a single root seed.
/// Independent sub-streams are derived with `fork(name)`, which mixes the
/// parent seed with a hash of the name; forks are stable across runs and
/// independent of draw order on the parent.
///
/// The engine is std::mt19937_64's exact sequence (LazyMt64), so a
/// stream costs only what it draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Derives an independent, reproducible child stream.
  [[nodiscard]] Rng fork(std::string_view name) const;
  [[nodiscard]] Rng fork(std::uint64_t index) const;

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform01();
  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] int uniform_int(int lo, int hi);
  /// Exponential with the given mean (> 0).
  [[nodiscard]] double exponential(double mean);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  LazyMt64 engine_;
};

}  // namespace csmabw::stats
