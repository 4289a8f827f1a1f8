#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace csmabw::util {

/// A parsed `key=value[,key=value...]` option string — the grammar of
/// measurement-method specs ("slops:train_length=50,trains_per_rate=3")
/// and any other string-configured component.
///
/// Parsing and every getter validate eagerly and report violations via
/// util::PreconditionError: missing '=', empty keys/elements, duplicate
/// keys, and values that do not fully parse as the requested type.  Keys
/// are marked consumed as they are read so `require_consumed()` can
/// reject misspelled options instead of silently ignoring them.
class Options {
 public:
  Options() = default;

  /// Parses `text`; an empty string yields an empty option set.
  [[nodiscard]] static Options parse(std::string_view text);

  [[nodiscard]] bool has(std::string_view key) const;

  /// Typed getters: return `def` when the key is absent; throw
  /// util::PreconditionError when the value is present but malformed
  /// (partial parses like "12x" are malformed, not truncated).
  [[nodiscard]] int get(std::string_view key, int def) const;
  [[nodiscard]] double get(std::string_view key, double def) const;
  /// Accepts 1/0/true/false.
  [[nodiscard]] bool get(std::string_view key, bool def) const;
  [[nodiscard]] std::string get(std::string_view key,
                                std::string_view def) const;
  /// String-literal defaults would otherwise decay to the bool overload.
  [[nodiscard]] std::string get(std::string_view key, const char* def) const {
    return get(key, std::string_view(def));
  }

  /// Rate value with an optional k/M/G suffix ("6M", "500k", "2.5M",
  /// plain bits per second); returns bits per second.
  [[nodiscard]] double get_rate_bps(std::string_view key, double def) const;
  /// Duration value with an optional s/ms/us/ns suffix ("50ms", "2s",
  /// plain seconds); returns seconds.
  [[nodiscard]] double get_duration_s(std::string_view key, double def) const;

  /// Throws util::PreconditionError listing every key no getter has read
  /// — `context` names the consumer (e.g. "method `slops`").
  void require_consumed(std::string_view context) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string key;
    std::string value;
    mutable bool consumed = false;
  };

  [[nodiscard]] const Entry* find(std::string_view key) const;

  std::vector<Entry> entries_;  // declaration order = parse order
};

/// Parses all of `text` as a T through std::from_chars: an integer for
/// an integral T, a finite number for a floating-point T.  nullopt on
/// anything else — "12x", "2.6" or "1e3" for an int, "inf", " 4", "+4".
/// The one number parser of util::Options and util::Args.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T v{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc{} || ptr != last) {
    return std::nullopt;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) {
      return std::nullopt;
    }
  }
  return v;
}

/// Parses a rate with an optional k/M/G suffix ("6M", "500k", "2.5M",
/// "6000000") into bits per second; throws PreconditionError on
/// malformed text or a non-positive value.
[[nodiscard]] double parse_rate_bps(std::string_view text);

/// Formats `bps` so that `parse_rate_bps(format_rate(bps)) == bps`
/// exactly, preferring the shortest of the M/k/plain spellings.
[[nodiscard]] std::string format_rate(double bps);

/// Parses a duration with an optional s/ms/us/ns suffix ("50ms", "2s",
/// "200us", plain seconds) into seconds; throws PreconditionError on
/// malformed text or a negative value.
[[nodiscard]] double parse_duration_s(std::string_view text);

/// Formats `seconds` so that `parse_duration_s(format_duration(s)) == s`
/// exactly, preferring the natural s/ms/us spelling.
[[nodiscard]] std::string format_duration(double seconds);

}  // namespace csmabw::util
