// perfbench: the end-to-end benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --reference FILE --work-dir DIR [--scale full|tiny]
//             [--prof FILE]
//   perfbench --workload NAME --work-dir DIR [--scale full|tiny] --digests
//
// --trace 0 runs the workload through the engine at min(4, hardware
// threads) workers for S seconds after one warm-up pass and
// prints the end-to-end metrics.  --trace 1 runs it on one thread with
// every layer call bracketed by a span and prints the per-layer metrics
// (and the Perfetto profile with --prof).  --digests prints the op
// digests of every seed set, the lines of the reference file.  Except
// with --digests, the last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"

namespace {

using namespace perfbench;

/// Distinct input sets the reference file covers; --seed selects one of
/// them (seed mod kSeedSets), so any seed has a reference.
constexpr std::uint64_t kSeedSets = 32;

/// Median wall time of host_speed_probe() measured on the reference
/// host, the 4-vCPU VM the bounds in BENCHMARK.json were set on
/// (README.md, Steadiness).  It fixes the scale of the reported times
/// only.
constexpr double kReferenceProbeS = 0.0118;

/// Extra set-ups timed after each measured pass.  setup_s is the median
/// over all of them, so its sub-millisecond samples outnumber the noise.
constexpr int kSetupsPerPass = 20;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string work_dir;
  std::string scale = "full";
  std::string prof;
  bool digests = false;
  /// The engine's fixed worker count: at most 4, at most the host's.
  int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1U, 4U));
};

Options parse_args(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--digests") {
      o.digests = true;
      continue;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected `--name value`, got `" + key + "`");
    }
    kv[key.substr(2)] = argv[++i];
  }
  const auto take = [&kv](const std::string& key, bool required) {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      if (required) {
        throw std::invalid_argument("missing --" + key);
      }
      return std::string();
    }
    std::string value = it->second;
    kv.erase(it);
    return value;
  };
  o.workload = take("workload", true);
  if (const std::string s = take("seed", !o.digests); !s.empty()) {
    o.seed = std::stoull(s);
  }
  o.reference = take("reference", !o.digests);
  o.work_dir = take("work-dir", true);
  if (const std::string s = take("seconds", false); !s.empty()) {
    o.seconds = std::stod(s);
  }
  if (const std::string t = take("trace", false); !t.empty()) {
    if (t != "0" && t != "1") {
      throw std::invalid_argument("--trace takes 0 or 1");
    }
    o.trace = t == "1";
  }
  if (const std::string s = take("scale", false); !s.empty()) {
    o.scale = s;
  }
  if (o.scale != "full" && o.scale != "tiny") {
    throw std::invalid_argument("--scale takes full or tiny");
  }
  o.prof = take("prof", false);
  if (!kv.empty()) {
    throw std::invalid_argument("unknown option --" + kv.begin()->first);
  }
  return o;
}

/// Reference digests of (scale, workload, seed set): op name -> hex.
std::map<std::string, std::string> load_reference(const Options& o,
                                                  std::uint64_t seed_set) {
  std::ifstream in(o.reference);
  if (!in) {
    throw std::runtime_error("cannot read reference file " + o.reference);
  }
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string scale, workload, op, hex;
    std::uint64_t set = 0;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (!(fields >> scale >> workload >> set >> op >> hex)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    if (scale == o.scale && workload == o.workload && set == seed_set) {
      out[op] = hex;
    }
  }
  return out;
}

/// Op bookkeeping across every pass of the run.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;

  void fail(const std::string& what) {
    ++failed;
    if (problems.size() < 20) {
      problems.push_back(what);
    }
  }

  /// One more check, failed unless `ok`.
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      fail(what);
    }
  }

  /// Checks a pass's ops against the reference and its unit checks.
  void check(const PassResult& pass,
             const std::map<std::string, std::string>& reference,
             const char* label) {
    for (const Op& op : pass.ops) {
      ++attempted;
      if (!op.error.empty()) {
        fail(std::string(label) + " " + op.name + " threw: " + op.error);
        continue;
      }
      const auto it = reference.find(op.name);
      if (it == reference.end()) {
        fail(std::string(label) + " " + op.name + ": no reference digest");
      } else if (it->second != hex16(op.digest)) {
        fail(std::string(label) + " " + op.name + ": digest " +
             hex16(op.digest) + " != reference " + it->second);
      }
    }
    for (const std::string& err : pass.unit_errors) {
      expect(false, std::string(label) + " unit check: " + err);
    }
  }
};

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the metrics as readable lines, then the result object as the
/// last line of stdout.
void emit(const std::vector<Metric>& metrics, const Tally& tally) {
  for (const std::string& p : tally.problems) {
    std::cout << "# FAIL " << p << "\n";
  }
  std::cout << "# failed_frac " << ratio(static_cast<double>(tally.failed),
                                         static_cast<double>(tally.attempted))
            << " (" << tally.failed << "/" << tally.attempted << ")\n";
  char buf[64];
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    std::cout << "# " << m.name << " = " << buf << " " << m.unit << "\n";
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

/// A fixed piece of the benchmark's own work that no library change can
/// alter, run on `threads` threads at once; returns one thread's time for
/// it.  Each thread runs a hold model, the classic event-queue
/// benchmark: pop the earliest of 16384 timestamps from a binary heap
/// and push it back a random step later.  A round's time is the median
/// of the threads' own times, so one slow vCPU does not set it, and the
/// fastest of three rounds is kept, so a burst of other work (file-system
/// write-back after trace_serve's passes) does not count.  What remains
/// drifts with the host's speed.  The heaps are allocated here, so the
/// threads add no malloc arenas to the process's resident memory.
double host_speed_probe(int threads) {
  const auto n = static_cast<std::size_t>(threads);
  std::vector<std::vector<std::uint64_t>> heaps(
      n, std::vector<std::uint64_t>(16384));
  std::vector<double> times(n);
  double fastest = 0.0;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < n; ++t) {
      pool.emplace_back([t, &heaps, &times] {
        const std::int64_t start = csmabw::obs::now_ns();
        std::vector<std::uint64_t>& heap = heaps[t];
        std::uint64_t x = 0x9e3779b97f4a7c15ULL + t;
        const auto next = [&x] {  // xorshift64
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          return x;
        };
        for (std::uint64_t& v : heap) {
          v = next() & 0xffffff;
        }
        std::make_heap(heap.begin(), heap.end(), std::greater<>());
        for (int i = 0; i < 70000; ++i) {
          std::pop_heap(heap.begin(), heap.end(), std::greater<>());
          heap.back() += (next() & 0xffff) + 1;
          std::push_heap(heap.begin(), heap.end(), std::greater<>());
        }
        times[t] = seconds_since(start);
      });
    }
    for (std::thread& th : pool) {
      th.join();
    }
    const double round_s = median(times);
    fastest = round == 0 ? round_s : std::min(fastest, round_s);
  }
  return fastest;
}

std::vector<Metric> run_untraced(Workload& w, const Options& o,
                                 const std::map<std::string, std::string>& ref,
                                 Tally& tally) {
  // One warm-up pass (checked, not timed): lazy set-up, page cache and
  // CPU frequency settle before the measured passes.
  tally.check(w.run(o.threads, nullptr), ref, "warm-up");
  std::vector<double> setup, wall, trains, events, probe;
  const std::int64_t start = csmabw::obs::now_ns();
  do {
    probe.push_back(host_speed_probe(o.threads));
    const PassResult r = w.run(o.threads, nullptr);
    tally.check(r, ref, "pass");
    tally.expect(r.trains == r.expected_trains && r.trains > 0 &&
                     r.sim_events > 0,
                 "unit check: trains simulated " + std::to_string(r.trains) +
                     " != declared " + std::to_string(r.expected_trains));
    std::printf("# pass %zu: setup_s %.6g wall_s %.6g train_wall_s %.6g\n",
                wall.size(), r.setup_s, r.wall_s, r.train_wall_s);
    setup.push_back(r.setup_s);
    for (const double t : w.setup_times(o.threads, kSetupsPerPass)) {
      setup.push_back(t);
    }
    wall.push_back(r.wall_s);
    trains.push_back(ratio(static_cast<double>(r.trains), r.train_wall_s));
    events.push_back(ratio(static_cast<double>(r.sim_events), r.train_wall_s));
  } while (seconds_since(start) < o.seconds);
  std::cout << "# workload " << o.workload << ", " << o.threads
            << " workers, " << wall.size() << " measured passes\n";
  // A shared host's speed drifts by 15-30% over minutes, and a median
  // over one run cannot average that out.  Times are therefore
  // scaled to the reference host's speed, measured by the probe run
  // before every pass: a host 10% slower than the reference has its
  // times divided, and its rates multiplied, by 1.1.
  const double slowdown = median(probe) / kReferenceProbeS;
  std::printf(
      "# host probe %.6g s (reference %.6g s): slowdown %.4f; as measured: "
      "setup_s %.6g wall_s %.6g trains_per_s %.6g sim_events_per_s %.6g\n",
      median(probe), kReferenceProbeS, slowdown, median(setup), median(wall),
      median(trains), median(events));
  return {{"setup_s", median(setup) / slowdown, "s"},
          {"wall_s", median(wall) / slowdown, "s"},
          {"trains_per_s", median(trains) * slowdown, "1/s"},
          {"sim_events_per_s", median(events) * slowdown, "1/s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

std::vector<Metric> run_traced(Workload& w, const Options& o,
                               const std::map<std::string, std::string>& ref,
                               Tally& tally) {
  // Warm-up as in the untraced mode, so no rate includes first-run set-up.
  tally.check(w.run(o.threads, nullptr), ref, "warm-up");
  Layers layers;
  std::vector<double> util, tool_rate, query_rate, served_rate;
  std::vector<double> plain_wall, traced_wall;
  const std::int64_t start = csmabw::obs::now_ns();
  do {
    {
      // Engine pass at the run's worker count with a metrics registry
      // attached: worker utilization and the phase rates.
      csmabw::obs::Registry metrics;
      const PassResult r = w.run(o.threads, &metrics);
      tally.check(r, ref, "engine");
      const auto busy = static_cast<double>(
          metrics.histogram_data("exp.rep.wall_ns").sum);
      util.push_back(
          ratio(busy * 1e-9, (r.train_wall_s + r.tool_wall_s) * o.threads));
      tool_rate.push_back(
          ratio(static_cast<double>(r.tool_runs), r.tool_wall_s));
      query_rate.push_back(
          ratio(static_cast<double>(r.query_events), r.query_wall_s));
      served_rate.push_back(
          ratio(static_cast<double>(r.served_reps), r.served_wall_s));
    }
    const PassResult plain = w.run(1, nullptr);
    tally.check(plain, ref, "one-worker");
    const std::int64_t timing_only_before = layers.timing_only_ns;
    const PassResult traced = w.run_traced(layers);
    tally.check(traced, ref, "traced");
    plain_wall.push_back(plain.wall_s);
    // The standalone builds that time a layer on its own are not tracing
    // cost: the untraced pass makes no such calls.
    traced_wall.push_back(
        traced.wall_s -
        static_cast<double>(layers.timing_only_ns - timing_only_before) *
            1e-9);
    tally.expect(traced.sim_events == plain.sim_events &&
                     traced.trains == plain.trains,
                 "unit check: traced pass simulated " +
                     std::to_string(traced.trains) + " trains / " +
                     std::to_string(traced.sim_events) + " events, untraced " +
                     std::to_string(plain.trains) + " / " +
                     std::to_string(plain.sim_events));
  } while (seconds_since(start) < o.seconds);
  TracedRunSummary summary;
  summary.worker_util = median(util);
  summary.tool_runs_per_s = median(tool_rate);
  summary.query_events_per_s = median(query_rate);
  summary.served_reps_per_s = median(served_rate);
  summary.overhead_frac = median(traced_wall) / median(plain_wall) - 1.0;
  std::cout << "# workload " << o.workload << ", traced on one thread, "
            << traced_wall.size() << " traced passes, "
            << layers.profiler.recorded() << " spans\n";

  if (!o.prof.empty()) {
    std::ofstream out(o.prof);
    layers.profiler.write_chrome_trace(out);
    if (!out) {
      throw std::runtime_error("cannot write profile " + o.prof);
    }
    std::cout << "# perfetto profile: " << o.prof << "\n";
  }
  std::vector<Metric> metrics;
  for (const LayerMetric& m : layer_metrics(layers, summary)) {
    metrics.push_back({m.name, m.value, m.unit});
  }
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    const auto make = [&o](std::uint64_t seed_set) {
      WorkloadParams params;
      params.campaign_seed = 1 + 1000 * (seed_set + 1);
      params.tiny = o.scale == "tiny";
      params.work_dir = o.work_dir;
      return make_workload(o.workload, params);
    };

    if (o.digests) {
      // Every seed set's op digests: the lines of the reference file.
      for (std::uint64_t seed_set = 0; seed_set < kSeedSets; ++seed_set) {
        const PassResult r = make(seed_set)->run(o.threads, nullptr);
        for (const Op& op : r.ops) {
          if (!op.error.empty()) {
            throw std::runtime_error(op.name + " threw: " + op.error);
          }
          std::cout << o.scale << " " << o.workload << " " << seed_set << " "
                    << op.name << " " << hex16(op.digest) << "\n";
        }
        for (const std::string& err : r.unit_errors) {
          throw std::runtime_error("unit check: " + err);
        }
      }
      return 0;
    }

    const std::uint64_t seed_set = o.seed % kSeedSets;
    const std::unique_ptr<Workload> w = make(seed_set);
    const std::map<std::string, std::string> ref = load_reference(o, seed_set);
    Tally tally;
    const std::vector<Metric> metrics =
        o.trace ? run_traced(*w, o, ref, tally)
                : run_untraced(*w, o, ref, tally);
    emit(metrics, tally);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 2;
  }
}
