#include "stats/lazy_mt64.hpp"

#include <algorithm>

namespace csmabw::stats {

namespace {

constexpr std::size_t kN = LazyMt64::kStateWords;

}  // namespace

LazyMt64::LazyMt64(const LazyMt64& other)
    : seed_(other.seed_),
      lo_(other.lo_),
      hi_(other.hi_),
      next_(other.next_) {
  if (other.block_ != nullptr) {
    block_ = std::make_unique_for_overwrite<std::uint64_t[]>(kN);
    std::copy_n(other.block_.get(), kN, block_.get());
  }
}

LazyMt64& LazyMt64::operator=(const LazyMt64& other) {
  if (this != &other) {
    *this = LazyMt64(other);
  }
  return *this;
}

LazyMt64::result_type LazyMt64::first_or_block_word() {
  if (next_ == 0) {
    std::uint64_t hi = seed_;
    for (std::size_t i = 1; i <= kShift; ++i) {
      hi = seed_step(hi, i);
    }
    hi_ = hi;
    return stream_word();
  }
  // next_ == kShift: output 156 reads the twisted word 0, which only a
  // whole block keeps.
  block_ = std::make_unique_for_overwrite<std::uint64_t[]>(kN);
  std::uint64_t* x = block_.get();
  x[0] = seed_;
  for (std::size_t i = 1; i < kN; ++i) {
    x[i] = seed_step(x[i - 1], i);
  }
  twist_block();
  next_ = kShift;
  return x[next_++];
}

void LazyMt64::twist_block() {
  std::uint64_t* x = block_.get();
  std::size_t k = 0;
  for (; k < kN - kShift; ++k) {
    x[k] = x[k + kShift] ^ mix(x[k], x[k + 1]);
  }
  for (; k < kN - 1; ++k) {
    x[k] = x[k + kShift - kN] ^ mix(x[k], x[k + 1]);
  }
  x[kN - 1] = x[kShift - 1] ^ mix(x[kN - 1], x[0]);
  next_ = 0;
}

}  // namespace csmabw::stats
