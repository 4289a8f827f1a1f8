// google-benchmark microbenchmarks of the library's hot paths: the
// discrete-event engine, the DCF simulator and its medium (complete-graph
// and sparse-graph bookkeeping), the per-repetition cell build, the
// probe-train repetition, the exp:: campaign engine, the KS statistic
// and a fig08-shaped KS curve, MSER, the trace-driven FIFO queue, and
// the event-trace codec (write + mapped-scan throughput).  These bound
// the cost of scaling the figure ensembles up to the paper's 25k-70k
// repetitions.
//
// A plain google-benchmark binary: it writes a file only when told to
// (`--benchmark_out=PATH --benchmark_out_format=json`); the committed
// perf baseline, BENCH_microbench.json, is regenerated that way (see
// README § Performance).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <filesystem>

#include "core/scenario.hpp"
#include "core/transient.hpp"
#include "exp/engine.hpp"
#include "mac/wlan.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/cache_key.hpp"
#include "serve/record.hpp"
#include "serve/result_cache.hpp"
#include "queueing/fifo_trace.hpp"
#include "sim/simulator.hpp"
#include "stats/ks_test.hpp"
#include "stats/mser.hpp"
#include "stats/rng.hpp"
#include "topo/topology.hpp"
#include "trace/query/agg.hpp"
#include "trace/query/engine.hpp"
#include "trace/query/mapped.hpp"
#include "trace/query/predicate.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "traffic/flow_meter.hpp"
#include "traffic/probe_train.hpp"
#include "traffic/source.hpp"

namespace {

using namespace csmabw;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(TimeNs::ns(i * 997 % 100000), [] {});
    }
    sim.run();
    if (sim.events_processed() != static_cast<std::uint64_t>(n)) {
      state.SkipWithError("processed a different number of events than "
                          "were scheduled");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

/// Timer target for BM_EventQueueTimerRearm.
struct RearmSink {
  std::uint64_t fired = 0;
  void fire() { ++fired; }
};

void BM_EventQueueTimerRearm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    RearmSink sink;
    const sim::TimerId t = sim.add_timer<&RearmSink::fire>(sink);
    // Each arm replaces its predecessor at a scattered time — the
    // medium's pending-fire pattern, which touches neither the heap nor
    // the slab.
    for (int i = 0; i < n; ++i) {
      sim.arm(t, TimeNs::ns(100000 + i * 997 % 100000));
    }
    sim.run();
    // Only the last arm fires.
    if (sim.events_processed() != 1 || sink.fired != 1) {
      state.SkipWithError("processed other than the one pending firing");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueTimerRearm)->Arg(10000);

/// Success accounting for the medium gate rows: items are successful
/// frames, and `counters["frames"]` is the per-iteration count.  The
/// runs are deterministic, so each row declares its success count and
/// check() fails the row when a run disagrees.  The count never passes
/// through DoNotOptimize(T&): with GCC and google-benchmark 1.7.1 that
/// overload's "+r,m" asm constraint corrupted the value the items were
/// derived from.
class FrameCount {
 public:
  FrameCount(benchmark::State& state, std::int64_t declared)
      : state_(state), declared_(declared) {}

  /// Adds one iteration's successes; false (and the row errors out)
  /// when they differ from the declared count.
  bool check(std::uint64_t successes) {
    const auto got = static_cast<std::int64_t>(successes);
    if (got != declared_) {
      state_.SkipWithError(("drained " + std::to_string(got) +
                            " frames, the row declares " +
                            std::to_string(declared_))
                               .c_str());
      return false;
    }
    frames_ += got;
    return true;
  }

  /// Reports the counted frames; call once, after the timing loop.
  void publish() {
    state_.counters["frames"] = benchmark::Counter(
        static_cast<double>(frames_), benchmark::Counter::kAvgIterations);
    state_.SetItemsProcessed(frames_);
  }

 private:
  benchmark::State& state_;
  std::int64_t declared_;
  std::int64_t frames_ = 0;
};

void BM_DcfSaturatedStation(benchmark::State& state, int stations,
                            std::int64_t declared_frames) {
  core::ScenarioConfig cfg;
  cfg.seed = 1;
  for (int i = 0; i < stations; ++i) {
    cfg.contenders.push_back(core::StationSpec::saturated(1500));
  }
  const core::Scenario sc(cfg);
  FrameCount frames(state, declared_frames);
  for (auto _ : state) {
    const core::ContentionResult r =
        sc.run_contention(TimeNs::sec(1), TimeNs::zero());
    if (!frames.check(r.medium.successes)) {
      break;
    }
  }
  frames.publish();
}
// Successes in one simulated second of saturation.  An exchange still on
// the air at the horizon is not counted (counting exchanges as they start
// gives 576, 600 and 597).
BENCHMARK_CAPTURE(BM_DcfSaturatedStation, 1, 1, 575);
BENCHMARK_CAPTURE(BM_DcfSaturatedStation, 2, 2, 600);
BENCHMARK_CAPTURE(BM_DcfSaturatedStation, 5, 5, 596);

void BM_MediumContention(benchmark::State& state, int stations,
                         std::int64_t declared_frames) {
  // Unsaturated Poisson contenders join and leave contention on every
  // arrival, so each enqueue triggers a Medium::update_contention — the
  // path the incremental (cached-minimum) reschedule optimizes.
  core::ScenarioConfig cfg;
  cfg.seed = 9;
  for (int i = 0; i < stations; ++i) {
    cfg.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(1.0)));
  }
  const core::Scenario sc(cfg);
  FrameCount frames(state, declared_frames);
  for (auto _ : state) {
    const core::ContentionResult r =
        sc.run_contention(TimeNs::sec(1), TimeNs::zero());
    if (!frames.check(r.medium.successes)) {
      break;
    }
  }
  frames.publish();
}
// Successes in one simulated second (counting exchanges as they start
// gives 161, 399 and 574).
BENCHMARK_CAPTURE(BM_MediumContention, 2, 2, 160);
BENCHMARK_CAPTURE(BM_MediumContention, 5, 5, 398);
BENCHMARK_CAPTURE(BM_MediumContention, 10, 10, 573);

void BM_ConflictGraphMedium(benchmark::State& state, topo::Topology topo,
                            std::int64_t declared_frames) {
  // Saturated burst over a conflict graph: every station dumps a queue
  // at t=1ms and the run drains it through fire/advance.  The grid rows
  // take the medium's sparse path; clique10 takes its complete-graph
  // path, the one every clique scenario runs on.  The graph is built
  // once, outside the timed loop, and shared by every iteration's
  // medium, as a Scenario shares it with every repetition.
  const int n = topo.num_nodes();
  const auto graph = std::make_shared<const topo::Topology>(std::move(topo));
  FrameCount frames(state, declared_frames);
  for (auto _ : state) {
    mac::WlanNetwork net(mac::PhyParams::dot11b_short(), 21, graph);
    for (int i = 0; i < n; ++i) {
      auto& st = net.add_station();
      net.simulator().schedule_at(TimeNs::ms(1), [&st, i] {
        for (int k = 0; k < 40; ++k) {
          mac::Packet p;
          p.flow = i;
          p.seq = k;
          p.size_bytes = 1500;
          st.enqueue(p);
        }
      });
    }
    net.simulator().run_until(TimeNs::sec(60));
    if (!frames.check(net.medium().stats().successes)) {
      break;
    }
  }
  frames.publish();
}
BENCHMARK_CAPTURE(BM_ConflictGraphMedium, grid9, topo::Topology::grid(3, 3),
                  341);
BENCHMARK_CAPTURE(BM_ConflictGraphMedium, grid25, topo::Topology::grid(5, 5),
                  874);
BENCHMARK_CAPTURE(BM_ConflictGraphMedium, clique10,
                  topo::Topology::clique(10), 400);
// The lattice-scaling gates: per-event cost must stay O(degree log N),
// so items/s may not collapse as the grid grows past 1k stations.
BENCHMARK_CAPTURE(BM_ConflictGraphMedium, grid1024,
                  topo::Topology::grid(32, 32), 26886);
BENCHMARK_CAPTURE(BM_ConflictGraphMedium, grid4096,
                  topo::Topology::grid(64, 64), 102954);

void BM_ScenarioCellBuild(benchmark::State& state, const char* scenario,
                          int declared_stations) {
  // One repetition's cell as Scenario::run_train builds it: from
  // prebuilt traffic models and the scenario's one conflict graph, with
  // a new repetition (so new random streams) every iteration.  Items are
  // stations built.  grid1024 is perfbench's 20 kb/s lattice cell: 1024
  // stations, 2048 random streams, most of which draw only a few numbers
  // per repetition.
  const core::ScenarioConfig cfg =
      core::ScenarioRegistry::global().resolve(scenario).to_config();
  std::vector<core::TrafficModelPtr> models;
  for (const core::StationSpec& st : cfg.contenders) {
    models.push_back(
        traffic::TrafficModelRegistry::global().create(st.traffic));
  }
  const topo::TopologyPtr graph = core::build_topology(cfg);
  std::uint64_t rep = 0;
  std::int64_t stations = 0;
  for (auto _ : state) {
    core::ScenarioCell cell(cfg, rep++, models, /*fifo_model=*/nullptr,
                            graph);
    const int built = cell.net().num_stations();
    if (built != declared_stations) {
      state.SkipWithError(("built " + std::to_string(built) +
                           " stations, the row declares " +
                           std::to_string(declared_stations))
                              .c_str());
      break;
    }
    stations += built;
  }
  state.SetItemsProcessed(stations);
}
BENCHMARK_CAPTURE(BM_ScenarioCellBuild, paper_fig2, "paper_fig2", 2);
BENCHMARK_CAPTURE(BM_ScenarioCellBuild, grid1024,
                  "topology=grid:32x32;contenders=1023x poisson:rate=20k",
                  1024);

void BM_ProbeTrainRepetition(benchmark::State& state) {
  core::ScenarioConfig cfg;
  cfg.seed = 2;
  cfg.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(4.0)));
  const core::Scenario sc(cfg);
  traffic::TrainSpec spec;
  spec.n = static_cast<int>(state.range(0));
  spec.size_bytes = 1500;
  spec.gap = BitRate::mbps(5.0).gap_for(1500);
  std::uint64_t rep = 0;
  for (auto _ : state) {
    const core::TrainRun run = sc.run_train(spec, rep++);
    if (run.packets.size() != static_cast<std::size_t>(spec.n)) {
      state.SkipWithError("the train recorded a different number of "
                          "packets than it sent");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * spec.n);
}
BENCHMARK(BM_ProbeTrainRepetition)->Arg(100)->Arg(1000);

void BM_CampaignEngine(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  exp::SweepSpec spec;
  spec.campaign_seed = 11;
  spec.scenarios = {"contenders=poisson:rate=2M",
                    "contenders=2x poisson:rate=2M"};
  spec.train_lengths = {60};
  spec.probe_mbps = {5.0};
  spec.repetitions = 32;
  const exp::Campaign campaign(spec);
  exp::TrainCampaignConfig tcfg;
  tcfg.shard_size = 8;
  for (auto _ : state) {
    exp::RunnerOptions opts;
    opts.threads = threads;
    const exp::Runner runner(opts);
    const std::vector<exp::TrainCellStats> cells =
        exp::run_train_campaign(campaign, tcfg, runner);
    // Items are repetitions: every one must have been accounted for.
    const bool counted = std::all_of(
        cells.begin(), cells.end(), [&](const exp::TrainCellStats& c) {
          return c.used + c.dropped == spec.repetitions;
        });
    if (!counted) {
      state.SkipWithError("a cell's used + dropped differs from its "
                          "declared repetitions");
      break;
    }
    benchmark::DoNotOptimize(cells.data());
  }
  state.SetItemsProcessed(state.iterations() * campaign.total_repetitions());
}
// Wall time is the relevant metric: the work runs on pool threads.
BENCHMARK(BM_CampaignEngine)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_ResultCacheKey(benchmark::State& state) {
  // Full content-addressed key derivation: canonical scenario string +
  // two-lane FNV over it.  Paid once per (cell, repetition) on every
  // cache-enabled campaign, so it must stay negligible next to the
  // repetition's simulation (~ms).
  core::ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(4.0)));
  cfg.contenders.push_back(core::StationSpec::saturated(1500));
  traffic::TrainSpec spec;
  spec.n = 400;
  spec.size_bytes = 1500;
  spec.gap = BitRate::mbps(5.0).gap_for(1500);
  int rep = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serve::train_rep_key(cfg, spec, false, rep++ & 1023));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResultCacheKey);

void BM_CacheLookupHit(benchmark::State& state) {
  // The warm-campaign hot path: key -> entry file -> read -> verify ->
  // payload.  A fleet re-run does this for every repetition instead of
  // simulating it, so lookup throughput bounds warm-cache speedup.
  const auto root =
      std::filesystem::temp_directory_path() / "csmabw-bench-cache";
  std::filesystem::remove_all(root);
  core::ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(4.0)));
  traffic::TrainSpec spec;
  spec.n = 400;
  spec.size_bytes = 1500;
  spec.gap = BitRate::mbps(5.0).gap_for(1500);
  serve::ResultCache cache(root.string());
  serve::TrainRepRecord record;
  record.access_delays_s.assign(400, 1.25e-3);
  record.output_gap_s = 2.5e-3;
  std::vector<unsigned char> payload;
  serve::encode_train_record(record, payload);
  const serve::CacheKey key = serve::train_rep_key(cfg, spec, false, 0);
  cache.store(key, payload);
  std::int64_t bytes = 0;
  for (auto _ : state) {
    auto hit = cache.lookup(key);
    if (!hit) {
      state.SkipWithError("lookup missed the stored entry");
      break;
    }
    bytes = static_cast<std::int64_t>(hit->size());
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * bytes);
  std::filesystem::remove_all(root);
}
BENCHMARK(BM_CacheLookupHit);

void BM_MetricsCounterHot(benchmark::State& state) {
  // A bound counter increment (Arg(1)) vs the unbound null-tap (Arg(0)).
  // The emission sites sit inside per-event simulator loops, so both
  // must stay in the low-nanosecond range — the disabled path is the
  // cost every non-observed run pays for the instrumentation existing.
  const bool enabled = state.range(0) != 0;
  obs::Registry registry(enabled);
  obs::Counter counter;
  if (enabled) {
    counter = registry.counter("bench.counter.hot");
  }
  for (auto _ : state) {
    counter.add(1);
    benchmark::DoNotOptimize(counter);
  }
  if (enabled && registry.value("bench.counter.hot") != state.iterations()) {
    state.SkipWithError("the counter's merged value differs from the "
                        "iterations");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterHot)->Arg(0)->Arg(1);

void BM_ScopedSpan(benchmark::State& state) {
  // One profiled span (Arg(1): two clock reads + a buffer push) vs the
  // disabled no-op (Arg(0)).  Spans wrap per-repetition and per-unit
  // work (~ms), so the enabled cost only needs to stay microsecond-
  // scale; the disabled cost guards un-profiled runs.
  const bool enabled = state.range(0) != 0;
  // Small cap: past it the span still pays both clock reads and the
  // nesting bookkeeping (the dominant costs) but stops growing the
  // buffer, keeping the bench's footprint bounded.
  obs::Profiler profiler(enabled, std::size_t{1} << 16);
  obs::Profiler* tap = enabled ? &profiler : nullptr;
  for (auto _ : state) {
    obs::ScopedSpan span(tap, "bench.span");
    span.arg("i", 1);
    benchmark::DoNotOptimize(span);
  }
  if (enabled && static_cast<benchmark::IterationCount>(
                     profiler.recorded() + profiler.dropped()) !=
                     state.iterations()) {
    state.SkipWithError("recorded + dropped spans differ from the "
                        "iterations");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedSpan)->Arg(0)->Arg(1);

void BM_KsStatistic(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(3);
  std::vector<double> a;
  std::vector<double> b;
  for (std::size_t i = 0; i < n; ++i) {
    a.push_back(rng.exponential(1.0));
    b.push_back(rng.exponential(1.1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::ks_statistic(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KsStatistic)->Arg(1000)->Arg(10000);

/// The KS curve at fig08's shape: 1,200 repetitions of 600-packet trains,
/// a 300-packet steady tail (a 360,000-value pool) and KS over the first
/// 100 packets.  Delays sit on the 20 us slot grid above an atom at the
/// uncontended delay, so the pool holds only 9,382 distinct values, as
/// fig08's does.  Items are indices evaluated.
void BM_TransientKsCurve(benchmark::State& state) {
  constexpr int kTrain = 600;
  constexpr int kPrefix = 100;
  core::TransientConfig cfg;
  cfg.train_length = kTrain;
  cfg.ks_prefix = kPrefix;
  cfg.steady_tail = 300;
  core::TransientAnalyzer analyzer(cfg);
  stats::Rng rng(8);
  std::vector<double> delays(kTrain);
  for (int rep = 0; rep < 1200; ++rep) {
    for (int i = 0; i < kTrain; ++i) {
      // Early packets find the channel idle more often.
      const bool contended = rng.uniform01() < (i < 10 ? 0.3 : 0.7);
      const int slots = contended ? rng.uniform_int(0, 9381) : 0;
      delays[static_cast<std::size_t>(i)] = 1.25e-3 + 20e-6 * slots;
    }
    analyzer.add_repetition(delays);
  }
  std::size_t points = 0;
  for (auto _ : state) {
    const std::vector<double> curve = analyzer.ks_curve();
    points = curve.size();
    benchmark::DoNotOptimize(curve.data());
  }
  if (points != kPrefix) {
    state.SkipWithError(("evaluated " + std::to_string(points) +
                         " indices, the row declares " +
                         std::to_string(kPrefix))
                            .c_str());
  }
  state.SetItemsProcessed(state.iterations() * kPrefix);
}
BENCHMARK(BM_TransientKsCurve);

void BM_Mser2(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  stats::Rng rng(4);
  std::vector<double> xs;
  for (int i = 0; i < n; ++i) {
    xs.push_back(rng.exponential(i < n / 10 ? 0.5 : 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::mser(xs, 2));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Mser2)->Arg(19)->Arg(999);

/// A realistic MAC event mix for the trace codec benchmarks (the kinds
/// and field magnitudes a DCF recording produces).
std::vector<trace::TraceEvent> synthetic_events(int n) {
  stats::Rng rng(6);
  std::vector<trace::TraceEvent> events;
  events.reserve(static_cast<std::size_t>(n));
  std::int64_t t = 0;
  for (int i = 0; i < n; ++i) {
    trace::TraceEvent e;
    t += rng.uniform_int(20, 2000000);
    e.time = TimeNs::ns(t);
    e.kind = static_cast<trace::EventKind>(
        rng.uniform_int(1, trace::kEventKindCount));
    e.station = static_cast<std::uint16_t>(rng.uniform_int(0, 3));
    e.packet = static_cast<std::uint64_t>(i / 4 + 1);
    e.aux = TimeNs::ns(t + rng.uniform_int(-200000, 200000));
    e.flow = rng.uniform_int(0, 1000);
    e.seq = i / 8;
    e.value = rng.uniform_int(0, 1500);
    events.push_back(e);
  }
  return events;
}

void BM_TraceWrite(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<trace::TraceEvent> events = synthetic_events(n);
  std::int64_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    trace::TraceWriter writer(out);
    for (const trace::TraceEvent& e : events) {
      writer.on_event(e);
    }
    writer.close();
    bytes = static_cast<std::int64_t>(out.tellp());
    benchmark::DoNotOptimize(writer.events_written());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_TraceWrite)->Arg(100000);

/// Writes `n` synthetic events as an on-disk trace and returns the path
/// (the read-path benchmarks all consume the same real file, so their
/// items/s ratios compare decode strategies, not storage).
std::filesystem::path write_bench_trace(const char* name, int n) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / name;
  trace::TraceWriter writer(path.string());
  for (const trace::TraceEvent& e : synthetic_events(n)) {
    writer.on_event(e);
  }
  writer.close();
  return path;
}

void BM_TraceScanMmap(benchmark::State& state) {
  // Zero-copy full decode of an on-disk trace through MappedTrace —
  // open, page-directory walk and in-place payload scan per iteration,
  // with the varint codec (the ALU floor of this format) doing the
  // work.  Pages decode independently, so one file's scan also
  // parallelizes across cores; BM_TraceScanParallel below measures
  // that.
  const int n = static_cast<int>(state.range(0));
  const std::filesystem::path path =
      write_bench_trace("csmabw-bench-scan.cctrace", n);
  const auto bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(path));
  // Each event adds station + 1 >= 1, so a lost or repeated event
  // changes the sum.
  std::uint64_t written = 0;
  for (const trace::TraceEvent& e : synthetic_events(n)) {
    written += static_cast<std::uint64_t>(e.station) + 1;
  }
  for (auto _ : state) {
    const trace::MappedTrace mapped(path.string());
    std::uint64_t decoded = 0;
    for (std::size_t p = 0; p < mapped.pages().size(); ++p) {
      mapped.scan_page(p, [&](const trace::TraceEvent& e) {
        decoded += static_cast<std::uint64_t>(e.station) + 1;
      });
    }
    if (decoded != written) {
      state.SkipWithError("decoded events differ from the n written");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * bytes);
  std::filesystem::remove(path);
}
BENCHMARK(BM_TraceScanMmap)->Arg(100000);

void BM_TraceScanParallel(benchmark::State& state) {
  // Full decode of one mapped trace with pages fanned out across the
  // worker pool — the decomposition trace_tool query runs.  Page
  // payloads are delta-based per page, so a single file's decode
  // scales with cores (on a 1-core runner this necessarily measures
  // pool overhead on top of BM_TraceScanMmap; the recorded baseline
  // says more about the box than the code there).  Thread count
  // resolves via CSMABW_THREADS / hardware concurrency.
  const int n = static_cast<int>(state.range(0));
  const std::filesystem::path path =
      write_bench_trace("csmabw-bench-parscan.cctrace", n);
  const auto bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(path));
  const trace::MappedTrace mapped(path.string());
  const exp::Runner runner;  // CSMABW_THREADS else hardware concurrency
  const int pages = static_cast<int>(mapped.pages().size());
  const int per_unit = 8;
  const int units = (pages + per_unit - 1) / per_unit;
  for (auto _ : state) {
    const std::vector<std::uint64_t> sums =
        runner.map(units, [&](int u) {
          const std::size_t first = static_cast<std::size_t>(u) * per_unit;
          const std::size_t last =
              std::min<std::size_t>(first + per_unit,
                                    static_cast<std::size_t>(pages));
          std::uint64_t d = 0;
          for (std::size_t p = first; p < last; ++p) {
            mapped.scan_page(p, [&](const trace::TraceEvent& e) {
              d += static_cast<std::uint64_t>(e.station) + 1;
            });
          }
          return d;
        });
    std::uint64_t decoded = 0;
    for (const std::uint64_t s : sums) {
      decoded += s;
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * bytes);
  std::filesystem::remove(path);
}
BENCHMARK(BM_TraceScanParallel)->Arg(1000000);

void BM_TraceQueryPushdown(benchmark::State& state) {
  // The same file scanned under a narrow time window: the per-page
  // skip-index refutes almost every page, so the scan touches headers
  // only.  Items are the events COVERED (the whole file), making the
  // items/s ratio to BM_TraceScanMmap the pushdown speedup over a full
  // decode.
  const int n = static_cast<int>(state.range(0));
  const std::filesystem::path path =
      write_bench_trace("csmabw-bench-pushdown.cctrace", n);
  const trace::MappedTrace mapped(path.string());
  trace::query::QueryPredicate pred;
  std::int64_t span = 0;
  for (const trace::PageInfo& p : mapped.pages()) {
    span = std::max(span, p.summary.max_time_ns);
  }
  pred.time_min_ns = span - span / 100;  // last ~1% of the recording
  for (auto _ : state) {
    trace::query::ScanStats stats;
    std::uint64_t matched = 0;
    trace::query::scan_pages(mapped, 0, mapped.pages().size(), pred, true,
                             &stats,
                             [&](const trace::TraceEvent&) { ++matched; });
    benchmark::DoNotOptimize(matched);
    if (stats.pages != mapped.pages().size() || stats.pages_skipped == 0) {
      state.SkipWithError("the scan missed a page or skipped none");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
  std::filesystem::remove(path);
}
BENCHMARK(BM_TraceQueryPushdown)->Arg(100000);

void BM_TraceAggHistogram(benchmark::State& state) {
  // End-to-end fleet aggregation: record a small probe-train fleet once,
  // then per iteration open every file, reconstruct packet lifecycles
  // and fold access delays into per-position histograms (the query
  // engine's delay-hist path).
  const int reps = static_cast<int>(state.range(0));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "csmabw-bench-agghist";
  std::filesystem::create_directories(dir);
  core::ScenarioConfig cfg;
  cfg.seed = 2;
  cfg.contenders.push_back(core::StationSpec::poisson(BitRate::mbps(4.0)));
  const core::Scenario sc(cfg);
  traffic::TrainSpec spec;
  spec.n = 60;
  spec.size_bytes = 1500;
  spec.gap = BitRate::mbps(5.0).gap_for(1500);
  std::vector<trace::TraceFile> files;
  std::uint64_t events = 0;
  for (int r = 0; r < reps; ++r) {
    trace::TraceMeta meta;
    meta.cell = 0;
    meta.repetition = r;
    meta.train_n = spec.n;
    meta.train_size = spec.size_bytes;
    const std::string path = trace::train_trace_path(dir.string(), 0, r);
    trace::TraceWriter writer(path, meta);
    (void)sc.run_train(spec, r, false, &writer);
    writer.close();
    events += writer.events_written();
    files.push_back({path, meta});
  }
  exp::RunnerOptions ropts;
  ropts.threads = 1;  // measure the aggregation path, not the pool
  const exp::Runner runner(ropts);
  for (auto _ : state) {
    const std::unique_ptr<trace::query::Aggregation> agg =
        trace::query::make_aggregation("delay-hist:bins=40,hi_ms=20");
    const trace::query::ScanStats stats = trace::query::run_query(
        files, trace::query::QueryPredicate{}, *agg, runner);
    benchmark::DoNotOptimize(agg->rows().size());
    if (stats.events_decoded != events) {
      state.SkipWithError("decoded a different number of events than "
                          "were written");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_TraceAggHistogram)->Arg(8);

void BM_FifoTrace(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  stats::Rng rng(5);
  std::vector<queueing::TraceJob> jobs;
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += rng.exponential(1e-3);
    jobs.push_back(queueing::TraceJob{
        TimeNs::from_seconds(t),
        TimeNs::from_seconds(rng.exponential(0.8e-3)), 0});
  }
  for (auto _ : state) {
    auto copy = jobs;
    benchmark::DoNotOptimize(queueing::run_fifo_trace(std::move(copy)));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FifoTrace)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
