#include "stats/rng.hpp"

#include <random>

#include "util/require.hpp"

namespace csmabw::stats {

namespace {

// SplitMix64 finalizer — decorrelates sequential seeds before they reach
// the Mersenne Twister, and mixes fork names into the parent seed.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_name(std::string_view name) {
  // FNV-1a, then finalized.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed), engine_(mix64(seed)) {}

Rng Rng::fork(std::string_view name) const {
  return Rng(mix64(seed_ ^ hash_name(name)));
}

Rng Rng::fork(std::uint64_t index) const {
  return Rng(mix64(seed_ + 0x632be59bd9b4e019ULL * (index + 1)));
}

double Rng::uniform01() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
  CSMABW_REQUIRE(lo < hi, "uniform(lo, hi) requires lo < hi");
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

int Rng::uniform_int(int lo, int hi) {
  CSMABW_REQUIRE(lo <= hi, "uniform_int(lo, hi) requires lo <= hi");
  return std::uniform_int_distribution<int>(lo, hi)(engine_);
}

double Rng::exponential(double mean) {
  CSMABW_REQUIRE(mean > 0.0, "exponential mean must be positive");
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

}  // namespace csmabw::stats
