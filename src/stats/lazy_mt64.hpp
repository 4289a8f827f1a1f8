#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace csmabw::stats {

/// The 64-bit Mersenne Twister (std::mt19937_64), computed only as far
/// as the next draw needs.
///
/// For every seed it returns exactly std::mt19937_64's output sequence.
/// The standard engine seeds all 312 state words when it is constructed
/// and twists all 312 at its first draw, so a stream that draws a dozen
/// numbers pays for 624 word computations.  This one defers both:
///   - while the first block is still being seeded, a refill twists the
///     next 16-word chunk and generates only the seed words that chunk
///     reads (twisting word k reads seed words k+1 and k+156);
///   - once every seed word exists, the rest of the block and every
///     later block are twisted whole, as the standard engine does.
/// A lattice cell builds two streams per station every repetition, and
/// a lightly loaded station draws only a few numbers from each.
///
/// A UniformRandomBitGenerator, so the std distributions accept it and
/// produce the same variates as from std::mt19937_64.  The state is
/// value-initialized: copying an engine never reads an indeterminate
/// word.
class LazyMt64 {
 public:
  using result_type = std::uint64_t;

  explicit LazyMt64(result_type seed) { x_[0] = seed; }

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    if (next_ == ready_) {
      refill();
    }
    result_type z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  static constexpr std::size_t kStateWords = 312;

 private:
  /// Makes x_[next_, ready_) non-empty: the next chunk of the first
  /// block, the rest of it, or the next whole block.
  void refill();
  /// Generates seed words up to (excluding) x_[count].
  void seed_to(std::size_t count);
  /// Twists x_[begin, end) in place, in the standard engine's order.
  void twist(std::size_t begin, std::size_t end);

  std::array<result_type, kStateWords> x_{};
  std::size_t seeded_ = 1;  ///< x_[0, seeded_) are seeded (some twisted).
  std::size_t next_ = 0;    ///< The next word to temper and return.
  std::size_t ready_ = 0;   ///< x_[next_, ready_) are twisted, unread.
};

}  // namespace csmabw::stats
