#include "util/cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "util/options.hpp"
#include "util/require.hpp"

namespace csmabw::util {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      options_.emplace(std::string(arg.substr(0, eq)),
                       std::string(arg.substr(eq + 1)));
      continue;
    }
    // `--name value` if the next token is not itself an option, else a flag.
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      options_.emplace(std::string(arg), std::string(argv[i + 1]));
      ++i;
    } else {
      options_.emplace(std::string(arg), std::nullopt);
    }
  }
}

bool Args::has(std::string_view name) const {
  return options_.find(name) != options_.end();
}

const std::string* Args::value(std::string_view name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) {
    return nullptr;
  }
  if (!it->second) {
    throw PreconditionError("option --" + std::string(name) +
                            " needs a value (--" + std::string(name) +
                            "=VALUE)");
  }
  return &*it->second;
}

std::string Args::get(std::string_view name, std::string_view def) const {
  const std::string* v = value(name);
  return v == nullptr ? std::string(def) : *v;
}

bool Args::get(std::string_view name, bool def) const {
  const auto it = options_.find(name);
  if (it == options_.end()) {
    return def;
  }
  if (!it->second) {
    return true;  // a bare --name
  }
  const std::string& v = *it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    return false;
  }
  throw PreconditionError("option --" + std::string(name) +
                          " expects a boolean, got '" + v + "'");
}

void Args::require_known(
    std::initializer_list<std::string_view> known) const {
  std::string unknown;
  for (const auto& [name, given] : options_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      unknown += (unknown.empty() ? "--" : ", --") + name;
    }
  }
  if (!unknown.empty()) {
    throw PreconditionError("unknown option " + unknown);
  }
}

namespace {

/// `value` of option --`name` as a T (see parse_number).
template <typename T>
T parse_flag(std::string_view name, const std::string& value) {
  if (const std::optional<T> v = parse_number<T>(value)) {
    return *v;
  }
  throw PreconditionError("option --" + std::string(name) + " expects " +
                          (std::is_integral_v<T> ? "an integer"
                                                 : "a finite number") +
                          ", got '" + value + "'");
}

std::vector<std::string> split_list(std::string_view name,
                                    const std::string& value) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= value.size()) {
    const std::size_t comma = value.find(',', begin);
    const std::size_t end = comma == std::string::npos ? value.size() : comma;
    if (end == begin) {
      throw PreconditionError("option --" + std::string(name) +
                              " has an empty list element in '" + value + "'");
    }
    out.push_back(value.substr(begin, end - begin));
    if (comma == std::string::npos) {
      break;
    }
    begin = comma + 1;
  }
  return out;
}

template <typename T>
std::vector<T> parse_list(std::string_view name, const std::string& value) {
  std::vector<T> out;
  for (const std::string& item : split_list(name, value)) {
    out.push_back(parse_flag<T>(name, item));
  }
  return out;
}

}  // namespace

double Args::get(std::string_view name, double def) const {
  const std::string* v = value(name);
  return v == nullptr ? def : parse_flag<double>(name, *v);
}

int Args::get(std::string_view name, int def) const {
  const std::string* v = value(name);
  return v == nullptr ? def : parse_flag<int>(name, *v);
}

std::vector<double> Args::get_doubles(std::string_view name,
                                      std::vector<double> def) const {
  const std::string* v = value(name);
  return v == nullptr ? def : parse_list<double>(name, *v);
}

std::vector<int> Args::get_ints(std::string_view name,
                                std::vector<int> def) const {
  const std::string* v = value(name);
  return v == nullptr ? def : parse_list<int>(name, *v);
}

std::vector<std::string> Args::get_strings(
    std::string_view name, std::vector<std::string> def) const {
  const std::string* v = value(name);
  return v == nullptr ? def : split_list(name, *v);
}

int run_tool(const char* tool, int (*run)(int, char**), int argc,
             char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << tool << ": error: " << e.what() << "\n";
    return 2;
  }
}

double bench_scale() {
  const char* env = std::getenv("CSMABW_BENCH_SCALE");
  if (env == nullptr || *env == '\0') {
    return 1.0;
  }
  const std::optional<double> scale = parse_number<double>(env);
  CSMABW_REQUIRE(scale.has_value() && *scale > 0.0,
                 "CSMABW_BENCH_SCALE expects a finite positive number, got '" +
                     std::string(env) + "'");
  return *scale;
}

int scaled_reps(int base) {
  CSMABW_REQUIRE(base >= 1, "base repetition count must be >= 1");
  const double scaled = std::round(base * bench_scale());
  CSMABW_REQUIRE(scaled <= std::numeric_limits<int>::max(),
                 "CSMABW_BENCH_SCALE scales " + std::to_string(base) +
                     " repetitions past the int range");
  return std::max(1, static_cast<int>(scaled));
}

}  // namespace csmabw::util
