// Compares two google-benchmark JSON outputs and fails (exit 1) when a
// gated benchmark family regresses beyond a noise threshold — the CI
// perf gate guarding the simulator core's throughput baseline
// (BENCH_microbench.json at the repo root).  Bad input (a missing file,
// an unknown flag) prints one `perf_compare: error:` line and exits 2.
//
//   perf_compare --baseline=BENCH_microbench.json --current=current.json
//       [--threshold=0.35] [--families=BM_EventQueueScheduleRun,...]
//
// The comparison metric is items_per_second (higher is better).  The
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
    "BM_EventQueueScheduleRun,BM_EventQueueCancelHeavy,"
    "BM_DcfSaturatedStation,BM_MediumContention,BM_ConflictGraphMedium,"
    "BM_ScenarioCellBuild,BM_ProbeTrainRepetition,BM_CampaignEngine,"
    "BM_ResultCacheKey,BM_CacheLookupHit,"
    "BM_TraceScanMmap,BM_TraceQueryPushdown,BM_TraceAggHistogram,"
    "BM_MetricsCounterHot,BM_ScopedSpan";

/// Extracts {name -> items_per_second} from google-benchmark JSON.
///
/// Not a general JSON parser: the google-benchmark output format is one
/// `"key": value` pair per line, with every benchmark object carrying a
/// "name" before its metrics.  "run_name" is distinct from "name" and
/// skipped.  The context block has no "items_per_second", so pairs
/// associate unambiguously.
std::map<std::string, double> read_items_per_second(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::map<std::string, double> out;
  std::string line;
  std::string current_name;
  while (std::getline(in, line)) {
    const auto name_pos = line.find("\"name\":");
    if (name_pos != std::string::npos) {
      const auto open = line.find('"', name_pos + 7);
      const auto close = open == std::string::npos
                             ? std::string::npos
                             : line.find('"', open + 1);
      if (open != std::string::npos && close != std::string::npos) {
        current_name = line.substr(open + 1, close - open - 1);
      }
      continue;
    }
    const auto ips_pos = line.find("\"items_per_second\":");
    if (ips_pos != std::string::npos && !current_name.empty()) {
      const double v = std::strtod(line.c_str() + ips_pos + 19, nullptr);
      out.emplace(current_name, v);  // first wins; names are unique
    }
  }
  return out;
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

  const auto baseline = read_items_per_second(baseline_path);
  const auto current = read_items_per_second(current_path);

  int failures = 0;
  int compared = 0;
  std::printf("%-36s %12s %12s %7s  %s\n", "benchmark", "baseline",
              "current", "ratio", "status");
  for (const auto& [name, base_ips] : baseline) {
    if (!in_families(name, families) || base_ips <= 0.0) {
      continue;
    }
    const auto it = current.find(name);
    if (it == current.end()) {
      std::printf("%-36s %12.3g %12s %7s  MISSING\n", name.c_str(), base_ips,
                  "-", "-");
      ++failures;
      continue;
    }
    const double ratio = it->second / base_ips;
    const bool ok = ratio >= 1.0 - threshold;
    std::printf("%-36s %12.3g %12.3g %6.2fx  %s\n", name.c_str(), base_ips,
                it->second, ratio, ok ? "ok" : "REGRESSION");
    ++compared;
    if (!ok) {
      ++failures;
    }
  }
  for (const auto& [name, ips] : current) {
    if (in_families(name, families) && baseline.find(name) == baseline.end()) {
      std::printf("%-36s %12s %12.3g %7s  new (no baseline)\n", name.c_str(),
                  "-", ips, "-");
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
