#pragma once

#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace csmabw::util {

/// Tiny command-line option parser for the bench and example binaries.
///
/// Accepts `--name=value`, `--name value` and boolean `--name` forms.
/// A bare `--name` reads only as a boolean (true): the string, number
/// and list getters throw `option --name needs a value (--name=VALUE)`
/// rather than read it as a value.  Any `--name` is accepted at parse
/// time; a binary that lists its options calls `require_known()` so a
/// misspelled one fails instead of being silently ignored.
class Args {
 public:
  Args(int argc, const char* const* argv);

  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::string get(std::string_view name,
                                std::string_view def) const;
  /// String-literal defaults would otherwise decay to the bool overload.
  [[nodiscard]] std::string get(std::string_view name, const char* def) const {
    return get(name, std::string_view(def));
  }
  /// Numbers parse whole (util::parse_number): a finite number for
  /// double, an integer for int; "12x", "2.6" as an int or "inf" throw.
  [[nodiscard]] double get(std::string_view name, double def) const;
  [[nodiscard]] int get(std::string_view name, int def) const;
  [[nodiscard]] bool get(std::string_view name, bool def) const;

  /// Comma-separated list forms ("--cross-mbps=1,2,4") for sweep axes.
  /// Returns `def` when the option is absent; rejects empty elements and
  /// parses numbers like the scalar getters.
  [[nodiscard]] std::vector<double> get_doubles(
      std::string_view name, std::vector<double> def) const;
  [[nodiscard]] std::vector<int> get_ints(std::string_view name,
                                          std::vector<int> def) const;
  [[nodiscard]] std::vector<std::string> get_strings(
      std::string_view name, std::vector<std::string> def) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Throws util::PreconditionError naming every given option that is
  /// not in `known` (e.g. `--thraeds=4`).
  void require_known(std::initializer_list<std::string_view> known) const;

 private:
  /// The value of --`name`, or nullptr when absent; throws when the
  /// option was given bare.
  [[nodiscard]] const std::string* value(std::string_view name) const;

  /// A bare `--name` maps to nullopt.
  std::map<std::string, std::optional<std::string>, std::less<>> options_;
  std::vector<std::string> positional_;
};

/// Runs a tool's `run(argc, argv)` and turns an escaping exception (bad
/// flags, a missing file, a merge with records missing) into one
/// `<tool>: error: <what>` line on stderr and exit code 2, instead of
/// an abort through std::terminate.  The bench and example `main`s
/// go through it.
int run_tool(const char* tool, int (*run)(int, char**), int argc,
             char** argv);

/// Reads the CSMABW_BENCH_SCALE environment variable (default 1.0 when
/// unset or empty).
///
/// Every bench multiplies its ensemble sizes by this factor, so
/// `CSMABW_BENCH_SCALE=10` approaches the paper's 25k-repetition
/// ensembles while the default stays laptop-fast.  The value parses
/// whole (util::parse_number); a malformed, non-finite or non-positive
/// one throws PreconditionError.
[[nodiscard]] double bench_scale();

/// max(1, round(base * bench_scale())) — convenience for repetition
/// counts.  Throws PreconditionError when the scaled count overflows int.
[[nodiscard]] int scaled_reps(int base);

}  // namespace csmabw::util
