#include "stats/lazy_mt64.hpp"

namespace csmabw::stats {

namespace {

constexpr std::size_t kN = LazyMt64::kStateWords;
constexpr std::size_t kM = 156;
/// Words twisted per refill while the first block is still being seeded.
constexpr std::size_t kChunk = 16;

/// The twist of one word: the top 33 bits of `hi` and the low 31 of
/// `lo`, shifted and conditionally xored with the twist matrix.
constexpr std::uint64_t mix(std::uint64_t hi, std::uint64_t lo) {
  const std::uint64_t y =
      (hi & 0xffffffff80000000ULL) | (lo & 0x7fffffffULL);
  return (y >> 1) ^ ((y & 1U) != 0 ? 0xb5026f5aa96619e9ULL : 0);
}

}  // namespace

void LazyMt64::refill() {
  if (ready_ == kN) {
    twist(0, kN);
    next_ = 0;
    ready_ = kN;
    return;
  }
  std::size_t end = kN;
  if (seeded_ < kN) {
    // Seeding is incomplete only while ready_ + kM < kN, so the chunk
    // ends well inside the block.
    end = ready_ + kChunk;
    seed_to(end + kM < kN ? end + kM : kN);
  }
  twist(ready_, end);
  ready_ = end;
}

void LazyMt64::seed_to(std::size_t count) {
  // Locals, not members: a store to x_ may alias a std::size_t member,
  // which would force a reload of both on every word.
  std::uint64_t prev = x_[seeded_ - 1];
  std::size_t i = seeded_;
  for (; i < count; ++i) {
    prev = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    x_[i] = prev;
  }
  seeded_ = i;
}

void LazyMt64::twist(std::size_t begin, std::size_t end) {
  std::size_t k = begin;
  for (const std::size_t stop = end < kN - kM ? end : kN - kM; k < stop;
       ++k) {
    x_[k] = x_[k + kM] ^ mix(x_[k], x_[k + 1]);
  }
  for (const std::size_t stop = end < kN - 1 ? end : kN - 1; k < stop; ++k) {
    x_[k] = x_[k + kM - kN] ^ mix(x_[k], x_[k + 1]);
  }
  if (end == kN) {
    x_[kN - 1] = x_[kM - 1] ^ mix(x_[kN - 1], x_[0]);
  }
}

}  // namespace csmabw::stats
