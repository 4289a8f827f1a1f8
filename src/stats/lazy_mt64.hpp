#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>

namespace csmabw::stats {

/// The 64-bit Mersenne Twister (std::mt19937_64) in 40 bytes until it
/// has drawn 156 numbers.
///
/// For every seed it returns exactly std::mt19937_64's output sequence.
/// The standard engine holds 312 state words (2.5 KB): it seeds them all
/// when it is constructed and twists them all at its first draw.  This
/// one holds no block while it can do without:
///   - output k < 156 of the first block is seed word k + 156 xored
///     with the twist of seed words k and k + 1, so two cursors on the
///     seeding recurrence (at words k and k + 156) produce it in O(1)
///     state;
///   - the 157th draw reads words the first 156 twists wrote, so it
///     allocates the 312-word block, seeds and twists it whole, and
///     continues at word 156; every later block is twisted whole, as the
///     standard engine does.
/// A lattice cell builds two streams per station every repetition, and
/// a lightly loaded station draws only a few numbers from each.
///
/// A UniformRandomBitGenerator, so the std distributions accept it and
/// produce the same variates as from std::mt19937_64.  A copy owns its
/// own block.
class LazyMt64 {
 public:
  using result_type = std::uint64_t;

  static constexpr std::size_t kStateWords = 312;

  explicit LazyMt64(result_type seed) : seed_(seed), lo_(seed) {}
  LazyMt64(const LazyMt64& other);
  LazyMt64& operator=(const LazyMt64& other);
  LazyMt64(LazyMt64&&) noexcept = default;
  LazyMt64& operator=(LazyMt64&&) noexcept = default;
  ~LazyMt64() = default;

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    result_type z = 0;
    if (block_ != nullptr) {
      if (next_ == kStateWords) {
        twist_block();
      }
      z = block_[next_++];
    } else if (next_ - 1 < kShift - 1) {  // 1 <= next_ < kShift
      z = stream_word();
    } else {
      z = first_or_block_word();
    }
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  /// The standard engine's shift: twisting word k reads word k + 156.
  static constexpr std::size_t kShift = 156;

  /// Seed word i from seed word i - 1 (the seeding recurrence).
  static constexpr std::uint64_t seed_step(std::uint64_t prev,
                                           std::size_t i) {
    return 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
  /// The twist of one word: the top 33 bits of `hi` and the low 31 of
  /// `lo`, shifted and conditionally xored with the twist matrix.
  static constexpr std::uint64_t mix(std::uint64_t hi, std::uint64_t lo) {
    const std::uint64_t y =
        (hi & 0xffffffff80000000ULL) | (lo & 0x7fffffffULL);
    return (y >> 1) ^ ((y & 1U) != 0 ? 0xb5026f5aa96619e9ULL : 0);
  }

  /// Untempered output next_ of the first block, from the two cursors.
  result_type stream_word() {
    const std::uint64_t lo1 = seed_step(lo_, next_ + 1);
    const result_type z = hi_ ^ mix(lo_, lo1);
    lo_ = lo1;
    hi_ = seed_step(hi_, next_ + kShift + 1);
    ++next_;
    return z;
  }
  /// The first draw (places the second cursor) or the 157th (builds
  /// the block).
  result_type first_or_block_word();
  /// Twists block_ whole, in the standard engine's order.
  void twist_block();

  std::uint64_t seed_;  ///< Seed word 0, to seed the block from.
  std::uint64_t lo_;    ///< Seed word next_ (no block yet).
  std::uint64_t hi_ = 0;  ///< Seed word next_ + 156 (no block, next_ > 0).
  std::size_t next_ = 0;  ///< The next output's word in its block.
  std::unique_ptr<std::uint64_t[]> block_;  ///< Null for 156 draws.
};

}  // namespace csmabw::stats
