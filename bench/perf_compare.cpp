// Compares two google-benchmark JSON outputs and fails (exit 1) when a
// gated benchmark family regresses beyond a noise threshold — the CI
// perf gate guarding the simulator core's throughput baseline
// (BENCH_microbench.json at the repo root).  Bad input (a missing file,
// an unknown flag) prints one `perf_compare: error:` line and exits 2.
//
//   perf_compare --baseline=BENCH_microbench.json --current=current.json
//       [--threshold=0.35] [--families=BM_EventQueueScheduleRun,...]
//
// The comparison metric is items_per_second (higher is better): the
// `_median` aggregate of a file written with --benchmark_repetitions
// (printed with its coefficient of variation), else the single run.  The
// threshold is deliberately generous: microbenchmarks on shared CI
// runners are noisy, and the gate exists to catch structural
// regressions (an accidental allocation or O(n) scan back in the hot
// path), not 5% jitter.  Benchmarks present in `current` but not in the
// baseline are reported and ignored; benchmarks missing from `current`
// that the baseline gates are an error (the gate must not silently
// shrink).
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"

namespace {

/// The sim-core benchmark families the gate protects by default.
const char* kDefaultFamilies =
    "BM_EventQueueScheduleRun,BM_EventQueueTimerRearm,"
    "BM_DcfSaturatedStation,BM_MediumContention,BM_ConflictGraphMedium,"
    "BM_ScenarioCellBuild,BM_ProbeTrainRepetition,BM_CampaignEngine,"
    "BM_ResultCacheKey,BM_CacheLookupHit,"
    "BM_TraceScanMmap,BM_TraceQueryPushdown,BM_TraceAggHistogram,"
    "BM_TransientKsCurve,BM_MetricsCounterHot,BM_ScopedSpan";

/// One gated row of a google-benchmark JSON file.
struct Row {
  double ips = 0.0;  ///< items_per_second: the median when repeated
  double cv = -1.0;  ///< its coefficient of variation, -1 = single shot
};

/// The quoted string value on a `"key": "value"` line.
std::string string_value(const std::string& line, std::size_t key_end) {
  const auto open = line.find('"', key_end);
  const auto close =
      open == std::string::npos ? std::string::npos : line.find('"', open + 1);
  if (open == std::string::npos || close == std::string::npos) {
    return "";
  }
  return line.substr(open + 1, close - open - 1);
}

/// Extracts {row -> items_per_second} from google-benchmark JSON.
///
/// Not a general JSON parser: the google-benchmark output format is one
/// `"key": value` pair per line, with every benchmark object opening
/// with its "name".  A file written with --benchmark_repetitions carries
/// aggregate objects ("run_name" + "aggregate_name"): the row is the
/// run_name, its value the `_median` (which replaces any per-repetition
/// value) and its spread the `_cv`; the other aggregates are ignored.
/// A single-shot file compares each object's own value.  The context
/// block has no "items_per_second", so pairs associate unambiguously.
std::map<std::string, Row> read_rows(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::map<std::string, Row> out;
  std::string name;
  std::string run_name;
  std::string aggregate;
  std::string line;
  while (std::getline(in, line)) {
    if (const auto k = line.find("\"name\":"); k != std::string::npos) {
      name = string_value(line, k + 7);
      run_name.clear();
      aggregate.clear();
      continue;
    }
    if (const auto k = line.find("\"run_name\":"); k != std::string::npos) {
      run_name = string_value(line, k + 11);
      continue;
    }
    if (const auto k = line.find("\"aggregate_name\":");
        k != std::string::npos) {
      aggregate = string_value(line, k + 17);
      continue;
    }
    const auto k = line.find("\"items_per_second\":");
    if (k == std::string::npos || name.empty()) {
      continue;
    }
    const double v = std::strtod(line.c_str() + k + 19, nullptr);
    if (aggregate.empty()) {
      out.emplace(name, Row{v});  // first wins; a median replaces it
    } else if (aggregate == "median") {
      out[run_name].ips = v;
    } else if (aggregate == "cv") {
      out[run_name].cv = v;
    }
  }
  return out;
}

/// "1.2%" for a row with a CV, "-" for a single shot.
std::string cv_text(const Row& r) {
  if (r.cv < 0.0) {
    return "-";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * r.cv);
  return buf;
}

bool in_families(const std::string& name,
                 const std::vector<std::string>& families) {
  for (const std::string& f : families) {
    if (name.rfind(f, 0) == 0) {
      return true;
    }
  }
  return false;
}

int run(int argc, char** argv) {
  const csmabw::util::Args args(argc, argv);
  args.require_known({"baseline", "current", "threshold", "families"});
  const std::string baseline_path = args.get("baseline", "BENCH_microbench.json");
  const std::string current_path = args.get("current", "current.json");
  const double threshold = args.get("threshold", 0.35);
  std::vector<std::string> families =
      args.get_strings("families", std::vector<std::string>{});
  if (families.empty()) {
    std::istringstream ss(kDefaultFamilies);
    std::string f;
    while (std::getline(ss, f, ',')) {
      families.push_back(f);
    }
  }

  const auto baseline = read_rows(baseline_path);
  const auto current = read_rows(current_path);

  int failures = 0;
  int compared = 0;
  std::printf("%-36s %12s %7s %12s %7s %7s  %s\n", "benchmark", "baseline",
              "cv", "current", "cv", "ratio", "status");
  for (const auto& [name, base] : baseline) {
    if (!in_families(name, families) || base.ips <= 0.0) {
      continue;
    }
    const auto it = current.find(name);
    if (it == current.end()) {
      std::printf("%-36s %12.3g %7s %12s %7s %7s  MISSING\n", name.c_str(),
                  base.ips, cv_text(base).c_str(), "-", "-", "-");
      ++failures;
      continue;
    }
    const Row& cur = it->second;
    const double ratio = cur.ips / base.ips;
    const bool ok = ratio >= 1.0 - threshold;
    std::printf("%-36s %12.3g %7s %12.3g %7s %6.2fx  %s\n", name.c_str(),
                base.ips, cv_text(base).c_str(), cur.ips,
                cv_text(cur).c_str(), ratio, ok ? "ok" : "REGRESSION");
    ++compared;
    if (!ok) {
      ++failures;
    }
  }
  for (const auto& [name, cur] : current) {
    if (in_families(name, families) && baseline.find(name) == baseline.end()) {
      std::printf("%-36s %12s %7s %12.3g %7s %7s  new (no baseline)\n",
                  name.c_str(), "-", "-", cur.ips, cv_text(cur).c_str(), "-");
    }
  }

  if (compared == 0) {
    throw std::runtime_error("no gated benchmarks found in " + baseline_path +
                             " — wrong file or families filter?");
  }
  if (failures > 0) {
    std::cerr << "perf_compare: " << failures
              << " benchmark(s) regressed beyond " << threshold * 100
              << "% (vs " << baseline_path << ")\n";
    return 1;
  }
  std::cout << "perf_compare: " << compared << " benchmark(s) within "
            << threshold * 100 << "% of baseline\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return csmabw::util::run_tool("perf_compare", run, argc, argv);
}
