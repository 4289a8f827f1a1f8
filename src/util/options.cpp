#include "util/options.hpp"

#include <charconv>
#include <cmath>

#include "util/json.hpp"
#include "util/require.hpp"

namespace csmabw::util {

namespace {

[[noreturn]] void bad_option(std::string_view key, std::string_view value,
                             std::string_view expected) {
  throw PreconditionError("option `" + std::string(key) + "=" +
                          std::string(value) + "`: expected " +
                          std::string(expected));
}

/// Splits `text` into a number and a unit suffix; throws when the
/// numeric prefix does not parse.
double number_with_suffix(std::string_view text, std::string_view* suffix,
                          std::string_view what) {
  double v = 0.0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  // from_chars accepts "inf"/"nan"; those have no canonical spelling
  // (json_number maps them to null) and livelock zero-gap sources.
  CSMABW_REQUIRE(ec == std::errc{} && ptr != first && std::isfinite(v),
                 "malformed " + std::string(what) + " `" + std::string(text) +
                     "`");
  *suffix = text.substr(static_cast<std::size_t>(ptr - first));
  return v;
}

}  // namespace

Options Options::parse(std::string_view text) {
  Options out;
  if (text.empty()) {
    return out;
  }
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = text.find(',', pos);
    const std::size_t end = comma == std::string_view::npos ? text.size()
                                                            : comma;
    const std::string_view element = text.substr(pos, end - pos);
    CSMABW_REQUIRE(!element.empty(), "empty element in option string `" +
                                         std::string(text) + "`");
    const std::size_t eq = element.find('=');
    CSMABW_REQUIRE(eq != std::string_view::npos,
                   "option `" + std::string(element) +
                       "` is not of the form key=value");
    const std::string_view key = element.substr(0, eq);
    CSMABW_REQUIRE(!key.empty(), "option `" + std::string(element) +
                                     "` has an empty key");
    CSMABW_REQUIRE(out.find(key) == nullptr,
                   "duplicate option key `" + std::string(key) + "`");
    out.entries_.push_back(
        Entry{std::string(key), std::string(element.substr(eq + 1)), false});
    if (comma == std::string_view::npos) {
      break;
    }
    pos = comma + 1;
  }
  return out;
}

const Options::Entry* Options::find(std::string_view key) const {
  for (const Entry& e : entries_) {
    if (e.key == key) {
      return &e;
    }
  }
  return nullptr;
}

bool Options::has(std::string_view key) const { return find(key) != nullptr; }

int Options::get(std::string_view key, int def) const {
  const Entry* e = find(key);
  if (e == nullptr) {
    return def;
  }
  e->consumed = true;
  const std::optional<int> v = parse_number<int>(e->value);
  if (!v) {
    bad_option(key, e->value, "an integer");
  }
  return *v;
}

double Options::get(std::string_view key, double def) const {
  const Entry* e = find(key);
  if (e == nullptr) {
    return def;
  }
  e->consumed = true;
  const std::optional<double> v = parse_number<double>(e->value);
  if (!v) {
    bad_option(key, e->value, "a finite number");
  }
  return *v;
}

bool Options::get(std::string_view key, bool def) const {
  const Entry* e = find(key);
  if (e == nullptr) {
    return def;
  }
  e->consumed = true;
  if (e->value == "1" || e->value == "true") {
    return true;
  }
  if (e->value == "0" || e->value == "false") {
    return false;
  }
  bad_option(key, e->value, "a boolean (1/0/true/false)");
}

std::string Options::get(std::string_view key, std::string_view def) const {
  const Entry* e = find(key);
  if (e == nullptr) {
    return std::string(def);
  }
  e->consumed = true;
  return e->value;
}

double Options::get_rate_bps(std::string_view key, double def) const {
  const Entry* e = find(key);
  if (e == nullptr) {
    return def;
  }
  e->consumed = true;
  try {
    return parse_rate_bps(e->value);
  } catch (const PreconditionError&) {
    bad_option(key, e->value, "a rate (e.g. 6M, 500k, 2.5M, 6000000)");
  }
}

double Options::get_duration_s(std::string_view key, double def) const {
  const Entry* e = find(key);
  if (e == nullptr) {
    return def;
  }
  e->consumed = true;
  try {
    return parse_duration_s(e->value);
  } catch (const PreconditionError&) {
    bad_option(key, e->value, "a duration (e.g. 50ms, 2s, 200us)");
  }
}

double parse_rate_bps(std::string_view text) {
  std::string_view suffix;
  double v = number_with_suffix(text, &suffix, "rate");
  if (suffix == "k") {
    v *= 1e3;
  } else if (suffix == "M") {
    v *= 1e6;
  } else if (suffix == "G") {
    v *= 1e9;
  } else {
    CSMABW_REQUIRE(suffix.empty(), "malformed rate `" + std::string(text) +
                                       "` (suffixes: k, M, G)");
  }
  CSMABW_REQUIRE(v > 0.0, "rate `" + std::string(text) +
                              "` must be positive");
  return v;
}

namespace {

struct Unit {
  double scale;
  const char* suffix;
};

/// The natural-unit spelling of `v`: the first unit that scales it into
/// [1, 1000), provided that spelling reparses to exactly `v` (so
/// canonicalization is idempotent) and is not meaningfully longer than
/// the plain spelling (binary rounding can turn 2e-4 s into
/// "200.00000000000003us" — plain wins then).  The plain spelling always
/// round-trips by json_number's contract and serves as the fallback.
template <typename Parse>
std::string natural_unit(double v, std::initializer_list<Unit> units,
                         const Parse& parse) {
  const std::string plain = json_number(v);
  for (const Unit& u : units) {
    const double scaled = v / u.scale;
    if (scaled < 1.0 || scaled >= 1000.0) {
      continue;
    }
    const std::string text = json_number(scaled) + u.suffix;
    if (text.size() <= plain.size() + 1 && parse(text) == v) {
      return text;
    }
  }
  return plain;
}

}  // namespace

std::string format_rate(double bps) {
  CSMABW_REQUIRE(bps > 0.0, "rate must be positive");
  return natural_unit(bps, {{1e9, "G"}, {1e6, "M"}, {1e3, "k"}},
                      [](const std::string& t) { return parse_rate_bps(t); });
}

double parse_duration_s(std::string_view text) {
  std::string_view suffix;
  double v = number_with_suffix(text, &suffix, "duration");
  if (suffix == "ms") {
    v *= 1e-3;
  } else if (suffix == "us") {
    v *= 1e-6;
  } else if (suffix == "ns") {
    v *= 1e-9;
  } else {
    CSMABW_REQUIRE(suffix.empty() || suffix == "s",
                   "malformed duration `" + std::string(text) +
                       "` (suffixes: s, ms, us, ns)");
  }
  CSMABW_REQUIRE(v >= 0.0, "duration `" + std::string(text) +
                               "` must be >= 0");
  return v;
}

std::string format_duration(double seconds) {
  CSMABW_REQUIRE(seconds >= 0.0, "duration must be >= 0");
  return natural_unit(
      seconds, {{1.0, "s"}, {1e-3, "ms"}, {1e-6, "us"}, {1e-9, "ns"}},
      [](const std::string& t) { return parse_duration_s(t); });
}

void Options::require_consumed(std::string_view context) const {
  std::string unknown;
  for (const Entry& e : entries_) {
    if (!e.consumed) {
      if (!unknown.empty()) {
        unknown += ", ";
      }
      unknown += e.key;
    }
  }
  CSMABW_REQUIRE(unknown.empty(), std::string(context) +
                                      ": unknown option key(s): " + unknown);
}

}  // namespace csmabw::util
