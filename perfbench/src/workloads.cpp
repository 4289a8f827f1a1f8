// The three workloads.  Each has an untraced pass that goes through the
// public engine entry points (exp::run_train_campaign,
// exp::run_method_campaign, trace::query::run_query) and a traced pass
// that does the same work on one thread, calling the layers below the
// engine one at a time so each call can carry a span.  Both passes
// produce the same op digests; the driver checks that they do.

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/method.hpp"
#include "core/scenario.hpp"
#include "exp/engine.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "layers.hpp"
#include "serve/cache_key.hpp"
#include "serve/campaign_io.hpp"
#include "serve/record.hpp"
#include "serve/result_cache.hpp"
#include "topo/registry.hpp"
#include "trace/query/agg.hpp"
#include "trace/query/engine.hpp"
#include "trace/query/mapped.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "traffic/model.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace csmabw;
using obs::ScopedSpan;

// ------------------------------------------------------------- digests

std::uint64_t digest_cell(const exp::TrainCellStats& s) {
  Digest d;
  d.i64(s.used).i64(s.dropped).i64(s.analyzer.repetitions());
  if (s.analyzer.repetitions() > 0) {
    for (const double m : s.analyzer.mean_curve()) {
      d.f64(m);
    }
    d.f64(s.analyzer.steady_mean());
    for (const double ks : s.analyzer.ks_curve()) {
      d.f64(ks);
    }
    for (int i = 0; i < s.analyzer.config().ks_prefix; ++i) {
      for (const double x : s.analyzer.sample_at(i)) {
        d.f64(x);
      }
    }
  }
  d.i64(s.output_gap_s.count());
  if (!s.output_gap_s.empty()) {
    d.f64(s.output_gap_s.mean()).f64(s.output_gap_s.variance());
  }
  return d.value();
}

void digest_report(Digest& d, const core::MeasurementReport& r) {
  d.str(r.method).f64(r.estimate_bps).i64(r.trains_sent).i64(r.probes_sent);
  d.i64(r.trains_lost).u64(r.curve.points.size());
  for (const core::RateResponsePoint& pt : r.curve.points) {
    d.f64(pt.input_bps).f64(pt.output_bps);
  }
  d.u64(r.metrics.size());
  for (const auto& [key, value] : r.metrics) {
    d.str(key).f64(value);
  }
}

std::uint64_t digest_rows(const trace::query::Aggregation& agg) {
  Digest d;
  for (const std::string& col : agg.columns()) {
    d.str(col);
  }
  for (const std::vector<util::Value>& row : agg.rows()) {
    d.u64(row.size());
    for (const util::Value& v : row) {
      if (v.is_number()) {
        d.f64(v.number());
      } else {
        d.str(v.str());
      }
    }
  }
  return d.value();
}

/// Runs `fn`; if it throws, every op in `names` is recorded as failed
/// with the error text.
void guarded(PassResult& r, const std::vector<std::string>& names,
             const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    for (const std::string& name : names) {
      r.ops.push_back(Op{name, 0, e.what()});
    }
  }
}

std::vector<std::string> op_names(const std::string& prefix, int count) {
  std::vector<std::string> names;
  for (int i = 0; i < count; ++i) {
    names.push_back(prefix + ".cell" + std::to_string(i));
  }
  return names;
}

/// Records one op per cell and checks the pass's train accounting:
/// every declared repetition was used or dropped, and `computed` of them
/// were simulated.
void record_train_cells(PassResult& r, const std::string& prefix,
                        const exp::Campaign& campaign,
                        const std::vector<exp::TrainCellStats>& cells,
                        std::int64_t computed) {
  std::int64_t accounted = 0;
  std::int64_t simulated = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    r.ops.push_back(Op{prefix + ".cell" + std::to_string(i),
                       digest_cell(cells[i]), ""});
    accounted += cells[i].used + cells[i].dropped;
    simulated += cells[i].obs.computed;
    r.sim_events += cells[i].obs.sim_events;
  }
  r.check(accounted == campaign.total_repetitions(),
          prefix + ": used + dropped != declared repetitions");
  r.check(simulated == computed,
          prefix + ": simulated repetitions != declared");
  r.trains += simulated;
}

exp::SweepSpec train_sweep(std::vector<std::string> scenarios, int train,
                           double probe_mbps, int reps, std::uint64_t seed) {
  exp::SweepSpec spec;
  spec.scenarios = std::move(scenarios);
  spec.train_lengths = {train};
  spec.probe_mbps = {probe_mbps};
  spec.repetitions = reps;
  spec.campaign_seed = seed;
  return spec;
}

exp::TrainCampaignConfig train_config() {
  exp::TrainCampaignConfig cfg;
  cfg.ks_prefix = 8;
  return cfg;
}

/// Wall time of `count` set-ups of type S, each built from `args` and
/// destroyed outside the clock.
template <typename S, typename... Args>
std::vector<double> time_setups(int count, const Args&... args) {
  std::vector<double> times;
  for (int i = 0; i < count; ++i) {
    std::optional<S> setup;
    const std::int64_t start = obs::now_ns();
    setup.emplace(args...);
    times.push_back(seconds_since(start));
  }
  return times;
}

// ------------------------------------------------------ traced train path

/// What a traced train pass does besides simulating: record traces,
/// or serve from and fill a result cache.
struct TrainHooks {
  std::string trace_dir;
  serve::ResultCache* cache = nullptr;
};

/// exp::run_train_campaign's decomposition replayed on the calling
/// thread: shards of cfg.shard_size repetitions, each accumulated on its
/// own and merged in shard order, so the merged statistics are
/// bit-identical to the engine's.  Each layer call carries a span.
std::vector<exp::TrainCellStats> traced_train_campaign(
    const exp::Campaign& campaign, const exp::TrainCampaignConfig& cfg,
    Layers& layers, const TrainHooks& hooks) {
  obs::Profiler* prof = &layers.profiler;
  const auto& traffic_registry = traffic::TrafficModelRegistry::global();
  std::vector<exp::TrainCellStats> merged;
  for (const exp::Cell& cell : campaign.cells()) {
    const core::TransientConfig tc =
        exp::train_transient_config(cell.train.n, cfg);
    merged.emplace_back(tc);
    merged.back().obs.cell = cell.index;
    for (int begin = 0; begin < cell.repetitions; begin += cfg.shard_size) {
      const int end = std::min(begin + cfg.shard_size, cell.repetitions);
      exp::TrainCellStats shard(tc);
      std::optional<core::Scenario> scenario;
      std::vector<core::TrafficModelPtr> models;
      core::TrafficModelPtr fifo;
      for (int rep = begin; rep < end; ++rep) {
        serve::TrainRepRecord record;
        serve::CacheKey key;
        bool served = false;
        if (hooks.cache != nullptr) {
          {
            ScopedSpan span(prof, "serve.key");
            key = serve::train_rep_key(cell.scenario, cell.train, false, rep);
          }
          std::optional<std::vector<unsigned char>> payload;
          {
            ScopedSpan span(prof, "serve.lookup");
            payload = hooks.cache->lookup(key);
          }
          ++layers.cache_lookups;
          if (payload.has_value()) {
            ScopedSpan span(prof, "serve.decode");
            served = serve::decode_train_record(payload->data(),
                                                payload->size(), &record);
          }
        }
        if (served) {
          ++layers.cache_hits;
          ++shard.obs.cached;
        } else {
          if (!scenario.has_value()) {
            ScopedSpan span(prof, "core.scenario");
            scenario.emplace(cell.scenario);
            for (const core::StationSpec& st : cell.scenario.contenders) {
              models.push_back(traffic_registry.create(st.traffic));
            }
            if (cell.scenario.fifo_cross.has_value()) {
              fifo = traffic_registry.create(cell.scenario.fifo_cross->traffic);
            }
            if (cell.scenario.topology != topo::kDefaultTopology) {
              const std::int64_t start = obs::now_ns();
              {
                ScopedSpan build(prof, "topo.build");
                (void)topo::TopologyRegistry::global().build(
                    cell.scenario.topology, cell.contenders + 1);
              }
              layers.timing_only_ns += obs::now_ns() - start;
            }
          }
          // The cell is built once more inside run_train; this build
          // only times the constructor.
          const std::int64_t build_start = obs::now_ns();
          {
            ScopedSpan span(prof, "core.cell_build");
            const core::ScenarioCell built(cell.scenario,
                                           static_cast<std::uint64_t>(rep),
                                           models, fifo);
          }
          layers.timing_only_ns += obs::now_ns() - build_start;
          std::unique_ptr<trace::TraceWriter> writer;
          if (!hooks.trace_dir.empty()) {
            trace::TraceMeta meta;
            meta.cell = cell.index;
            meta.repetition = rep;
            meta.train_n = cell.train.n;
            meta.train_size = cell.train.size_bytes;
            meta.train_gap_ns = cell.train.gap.count();
            meta.seed = cell.scenario.seed;
            meta.label = cell.scenario_name;
            writer = std::make_unique<trace::TraceWriter>(
                trace::train_trace_path(hooks.trace_dir, cell.index, rep),
                meta);
          }
          layers.sink.next = writer.get();
          std::optional<core::TrainRun> run;
          {
            ScopedSpan span(prof, "core.run_train");
            run.emplace(scenario->run_train(cell.train,
                                            static_cast<std::uint64_t>(rep),
                                            false, &layers.sink,
                                            &layers.registry));
          }
          layers.sink.next = nullptr;
          if (writer != nullptr) {
            writer->close();
            layers.trace_events +=
                static_cast<std::int64_t>(writer->events_written());
          }
          layers.add_run(*run);
          record.dropped = run->any_dropped;
          if (!run->any_dropped) {
            record.access_delays_s = run->access_delays_s();
            record.output_gap_s = run->output_gap_s();
          }
          ++shard.obs.computed;
          shard.obs.sim_events += static_cast<std::int64_t>(run->sim_events);
          std::vector<unsigned char> payload;
          {
            ScopedSpan span(prof, "serve.encode");
            serve::encode_train_record(record, payload);
          }
          if (hooks.cache != nullptr) {
            ScopedSpan span(prof, "serve.store");
            hooks.cache->store(key, payload);
            ++layers.cache_stores;
            layers.stored_bytes += static_cast<std::int64_t>(payload.size());
          }
        }
        if (record.dropped) {
          ++shard.dropped;
          continue;
        }
        {
          ScopedSpan span(prof, "core.transient_add");
          shard.analyzer.add_repetition(record.access_delays_s);
        }
        shard.output_gap_s.add(record.output_gap_s);
        ++shard.used;
      }
      exp::TrainCellStats& dst = merged.back();
      dst.analyzer.merge(shard.analyzer);
      dst.output_gap_s.merge(shard.output_gap_s);
      dst.used += shard.used;
      dst.dropped += shard.dropped;
      dst.obs.merge(shard.obs);
    }
  }
  return merged;
}

/// Times one train phase (engine or traced) and records its cells.
void train_phase(PassResult& r, const std::string& prefix,
                 const exp::Campaign& campaign, std::int64_t computed,
                 const std::function<std::vector<exp::TrainCellStats>()>& fn) {
  guarded(r, op_names(prefix, campaign.size()), [&] {
    const std::int64_t start = obs::now_ns();
    const std::vector<exp::TrainCellStats> cells = fn();
    const double wall = seconds_since(start);
    r.wall_s += wall;
    if (computed > 0) {
      r.train_wall_s += wall;
      r.expected_trains += computed;
    } else {
      r.served_wall_s += wall;
      r.served_reps += campaign.total_repetitions();
    }
    record_train_cells(r, prefix, campaign, cells, computed);
  });
}

// ------------------------------------------------------------ clique_paper

/// The paper's own workload: probe-train ensembles over five clique
/// cells, then every bandwidth tool on two of them.
class CliquePaper final : public Workload {
 public:
  explicit CliquePaper(const WorkloadParams& p) : p_(p) {}

  PassResult run(int threads, obs::Registry* metrics) override {
    PassResult r;
    const std::int64_t t0 = obs::now_ns();
    const Setup s(*this, threads, metrics);
    r.setup_s = seconds_since(t0);

    train_phase(r, "train", s.trains, s.trains.total_repetitions(), [&] {
      return exp::run_train_campaign(s.trains, s.tcfg, s.runner, s.io);
    });
    guarded(r, op_names("tools", s.tools.size()), [&] {
      const std::int64_t start = obs::now_ns();
      const std::vector<exp::MethodRun> runs =
          exp::run_method_campaign(s.tools, s.mcfg, s.runner, s.io);
      r.tool_wall_s = seconds_since(start);
      r.wall_s += r.tool_wall_s;
      r.tool_runs = static_cast<std::int64_t>(runs.size());
      record_tool_cells(r, s.tools, runs);
    });
    return r;
  }

  std::vector<double> setup_times(int threads, int count) override {
    return time_setups<Setup>(count, *this, threads, nullptr);
  }

  PassResult run_traced(Layers& layers) override {
    PassResult r;
    const std::int64_t t0 = obs::now_ns();
    const Setup s(*this, 1, nullptr);
    r.setup_s = seconds_since(t0);
    const exp::Campaign& trains = s.trains;
    const exp::Campaign& tools = s.tools;

    train_phase(r, "train", trains, trains.total_repetitions(), [&] {
      ScopedSpan span(&layers.profiler, "phase.train");
      return traced_train_campaign(trains, s.tcfg, layers, {});
    });
    guarded(r, op_names("tools", tools.size()), [&] {
      ScopedSpan phase(&layers.profiler, "phase.tools");
      const std::int64_t start = obs::now_ns();
      const auto& registry = core::MethodRegistry::global();
      std::vector<exp::MethodRun> runs;
      for (const exp::Cell& cell : tools.cells()) {
        for (int rep = 0; rep < cell.repetitions; ++rep) {
          const std::uint64_t seed =
              exp::method_rep_seed(tools.campaign_seed(), cell.index, rep);
          core::ScenarioConfig scenario = cell.scenario;
          scenario.seed = seed;
          CountingTransport transport(scenario);
          const std::unique_ptr<core::MeasurementMethod> method =
              registry.create(cell.method);
          exp::MethodRun run;
          run.cell_index = cell.index;
          run.repetition = rep;
          {
            ScopedSpan span(&layers.profiler,
                            "core.method_run." + std::string(method->name()));
            run.report = method->run(transport, seed);
          }
          ++layers.tool_runs;
          layers.tool_trains += transport.trains;
          runs.push_back(std::move(run));
        }
      }
      r.tool_wall_s = seconds_since(start);
      r.wall_s += r.tool_wall_s;
      r.tool_runs = static_cast<std::int64_t>(runs.size());
      record_tool_cells(r, tools, runs);
    });
    return r;
  }

 private:
  /// What a pass builds before its first engine call.
  struct Setup {
    Setup(const CliquePaper& w, int threads, obs::Registry* metrics)
        : trains(w.train_spec()),
          tools(w.tool_spec()),
          runner(exp::RunnerOptions{threads, nullptr}) {
      io.metrics = metrics;
    }
    exp::Campaign trains;
    exp::Campaign tools;
    exp::TrainCampaignConfig tcfg = train_config();
    exp::MethodCampaignConfig mcfg;
    exp::Runner runner;
    serve::CampaignServeOptions io;
  };

  exp::SweepSpec train_spec() const {
    return train_sweep({"paper_fig2", "paper_fig3", "rate_anomaly", "bursty",
                        "contenders=5x saturated"},
                       p_.tiny ? 40 : 400, 5.0, p_.tiny ? 12 : 1000,
                       p_.campaign_seed);
  }

  exp::SweepSpec tool_spec() const {
    exp::SweepSpec spec = train_sweep({"paper_fig2", "paper_fig3"}, 400, 5.0,
                                      p_.tiny ? 1 : 8,
                                      p_.campaign_seed + 100);
    spec.methods = {"bisection", "slops", "packet_pair", "train_sweep",
                    "steady_state"};
    if (p_.tiny) {
      spec.methods = {"bisection:trains_per_rate=2,max_iterations=4",
                      "slops:trains_per_rate=2,max_iterations=4",
                      "packet_pair:pairs=10",
                      "train_sweep:trains_per_rate=2,grid=3",
                      "steady_state:duration_s=2"};
    }
    return spec;
  }

  /// One op per method cell: the digest of its reports in repetition
  /// order.  Checks that every declared run came back with a report.
  static void record_tool_cells(PassResult& r, const exp::Campaign& tools,
                                const std::vector<exp::MethodRun>& runs) {
    r.check(static_cast<std::int64_t>(runs.size()) ==
                tools.total_repetitions(),
            "tools: method runs != declared repetitions");
    std::vector<Digest> digests(tools.cells().size());
    for (const exp::MethodRun& run : runs) {
      r.check(!run.report.method.empty(), "tools: a run has no report");
      digest_report(digests[static_cast<std::size_t>(run.cell_index)],
                    run.report);
    }
    for (std::size_t i = 0; i < digests.size(); ++i) {
      r.ops.push_back(
          Op{"tools.cell" + std::to_string(i), digests[i].value(), ""});
    }
  }

  WorkloadParams p_;
};

// ------------------------------------------------------------ grid_lattice

/// Hidden-terminal lattice: a 32x32 grid of Poisson stations at two
/// loads, with fewer repetitions per cell than the engine's shard.
class GridLattice final : public Workload {
 public:
  explicit GridLattice(const WorkloadParams& p) : p_(p) {}

  PassResult run(int threads, obs::Registry* metrics) override {
    PassResult r;
    const std::int64_t t0 = obs::now_ns();
    const Setup s(*this, threads, metrics);
    r.setup_s = seconds_since(t0);
    train_phase(r, "train", s.trains, s.trains.total_repetitions(), [&] {
      return exp::run_train_campaign(s.trains, s.tcfg, s.runner, s.io);
    });
    return r;
  }

  std::vector<double> setup_times(int threads, int count) override {
    return time_setups<Setup>(count, *this, threads, nullptr);
  }

  PassResult run_traced(Layers& layers) override {
    PassResult r;
    const std::int64_t t0 = obs::now_ns();
    const Setup s(*this, 1, nullptr);
    r.setup_s = seconds_since(t0);
    train_phase(r, "train", s.trains, s.trains.total_repetitions(), [&] {
      ScopedSpan span(&layers.profiler, "phase.train");
      return traced_train_campaign(s.trains, s.tcfg, layers, {});
    });
    return r;
  }

 private:
  /// What a pass builds before its first engine call.
  struct Setup {
    Setup(const GridLattice& w, int threads, obs::Registry* metrics)
        : trains(w.spec()), runner(exp::RunnerOptions{threads, nullptr}) {
      io.metrics = metrics;
    }
    exp::Campaign trains;
    exp::TrainCampaignConfig tcfg = train_config();
    exp::Runner runner;
    serve::CampaignServeOptions io;
  };

  exp::SweepSpec spec() const {
    const int side = p_.tiny ? 6 : 32;
    const std::string grid = "topology=grid:" + std::to_string(side) + "x" +
                             std::to_string(side) + ";contenders=" +
                             std::to_string(side * side - 1) +
                             "x poisson:rate=";
    return train_sweep({grid + "20k", grid + "100k"}, 40, 1.0,
                       p_.tiny ? 2 : 40, p_.campaign_seed);
  }

  WorkloadParams p_;
};

// ------------------------------------------------------------- trace_serve

/// One cheap clique campaign four ways: recorded to traces, queried
/// twice, then served through a cold and a warm result cache.
class TraceServe final : public Workload {
 public:
  explicit TraceServe(const WorkloadParams& p) : p_(p) {}

  TraceServe(const TraceServe&) = delete;
  TraceServe& operator=(const TraceServe&) = delete;

  ~TraceServe() override {
    std::error_code ignored;
    fs::remove_all(p_.work_dir, ignored);
  }

  PassResult run(int threads, obs::Registry* metrics) override {
    PassResult r;
    const Dirs dirs = fresh_dirs();
    const std::int64_t t0 = obs::now_ns();
    Setup s(*this, dirs, threads, metrics);
    r.setup_s = seconds_since(t0);

    const std::int64_t reps = s.plain.total_repetitions();
    train_phase(r, "record", s.recorded, reps, [&] {
      return exp::run_train_campaign(s.recorded, s.tcfg, s.runner, s.io);
    });
    guarded(r, {"query.delay", "query.counts"}, [&] {
      const std::int64_t start = obs::now_ns();
      const std::vector<trace::TraceFile> files =
          trace::list_traces(dirs.traces);
      const trace::query::ScanStats delay = trace::query::run_query(
          files, {}, *s.q.delay, s.runner, s.qopts);
      const trace::query::ScanStats counts = trace::query::run_query(
          files, s.q.collisions, *s.q.counts, s.runner, s.qopts);
      r.query_wall_s = seconds_since(start);
      r.wall_s += r.query_wall_s;
      record_queries(r, files, s.q, delay, counts);
    });
    train_phase(r, "cold", s.plain, reps, [&] {
      return exp::run_train_campaign(s.plain, s.tcfg, s.runner, s.cached);
    });
    train_phase(r, "warm", s.plain, 0, [&] {
      return exp::run_train_campaign(s.plain, s.tcfg, s.runner, s.cached);
    });
    check_passes_agree(r);
    fs::remove_all(p_.work_dir);
    return r;
  }

  std::vector<double> setup_times(int threads, int count) override {
    const Dirs dirs = fresh_dirs();
    std::vector<double> times =
        time_setups<Setup>(count, *this, dirs, threads, nullptr);
    fs::remove_all(p_.work_dir);
    return times;
  }

  PassResult run_traced(Layers& layers) override {
    PassResult r;
    obs::Profiler* prof = &layers.profiler;
    const Dirs dirs = fresh_dirs();
    const std::int64_t t0 = obs::now_ns();
    Setup s(*this, dirs, 1, &layers.registry);
    r.setup_s = seconds_since(t0);
    const exp::Campaign& recorded = s.recorded;
    const exp::Campaign& plain = s.plain;
    const exp::TrainCampaignConfig& tcfg = s.tcfg;
    const exp::Runner& one = s.runner;
    serve::ResultCache& cache = s.cache;
    const Queries& q = s.q;
    const trace::query::QueryOptions& qopts = s.qopts;

    // The plain pass is not part of the workload: it is the baseline the
    // record pass's trace-writing cost is measured against.
    PassResult plain_pass;
    std::int64_t start = obs::now_ns();
    train_phase(plain_pass, "plain", plain, plain.total_repetitions(), [&] {
      ScopedSpan span(prof, "phase.plain");
      return traced_train_campaign(plain, tcfg, layers, {});
    });
    layers.plain_pass_ns += obs::now_ns() - start;

    const std::int64_t reps = plain.total_repetitions();
    start = obs::now_ns();
    train_phase(r, "record", recorded, reps, [&] {
      ScopedSpan span(prof, "phase.record");
      return traced_train_campaign(recorded, tcfg, layers,
                                   TrainHooks{dirs.traces, nullptr});
    });
    layers.record_pass_ns += obs::now_ns() - start;
    for (const auto& entry : fs::directory_iterator(dirs.traces)) {
      layers.trace_bytes += static_cast<std::int64_t>(entry.file_size());
    }

    guarded(r, {"query.delay", "query.counts"}, [&] {
      ScopedSpan phase(prof, "phase.query");
      const std::int64_t qstart = obs::now_ns();
      const std::vector<trace::TraceFile> files =
          trace::list_traces(dirs.traces);
      trace::query::ScanStats delay;
      {
        ScopedSpan span(prof, "trace.query.delay");
        const std::int64_t dstart = obs::now_ns();
        delay = trace::query::run_query(files, {}, *q.delay, one, qopts);
        layers.query_decode_ns += obs::now_ns() - dstart;
      }
      layers.query_decoded_events +=
          static_cast<std::int64_t>(delay.events_decoded);
      trace::query::ScanStats counts;
      {
        ScopedSpan span(prof, "trace.query.counts");
        counts = trace::query::run_query(files, q.collisions, *q.counts, one,
                                         qopts);
      }
      layers.pushdown_pages += static_cast<std::int64_t>(counts.pages);
      layers.pushdown_pages_skipped +=
          static_cast<std::int64_t>(counts.pages_skipped);
      r.query_wall_s = seconds_since(qstart);
      r.wall_s += r.query_wall_s;
      record_queries(r, files, q, delay, counts);
    });
    train_phase(r, "cold", plain, reps, [&] {
      ScopedSpan span(prof, "phase.cold");
      return traced_train_campaign(plain, tcfg, layers,
                                   TrainHooks{"", &cache});
    });
    train_phase(r, "warm", plain, 0, [&] {
      ScopedSpan span(prof, "phase.warm");
      return traced_train_campaign(plain, tcfg, layers,
                                   TrainHooks{"", &cache});
    });
    check_passes_agree(r);
    r.check(plain_pass.ops.size() == 1 && !r.ops.empty() &&
                plain_pass.ops[0].digest == r.ops[0].digest,
            "trace_serve: plain and record passes disagree");
    fs::remove_all(p_.work_dir);
    return r;
  }

 private:
  struct Dirs {
    std::string traces;
    std::string cache;
  };

  /// The queries' aggregations and pushdown predicate, built in setup.
  struct Queries {
    std::unique_ptr<trace::query::Aggregation> delay =
        trace::query::make_aggregation("delay");
    std::unique_ptr<trace::query::Aggregation> counts =
        trace::query::make_aggregation("counts");
    trace::query::QueryPredicate collisions =
        trace::query::QueryPredicate::parse("kinds=collision");
  };

  /// What a pass builds before its first engine call.
  struct Setup {
    Setup(const TraceServe& w, const Dirs& dirs, int threads,
          obs::Registry* metrics)
        : recorded(w.spec(dirs.traces)),
          plain(w.spec("")),
          runner(exp::RunnerOptions{threads, nullptr}),
          cache(dirs.cache, metrics) {
      io.metrics = metrics;
      cached = io;
      cached.cache = &cache;
      qopts.metrics = metrics;
    }
    Setup(const Setup&) = delete;
    Setup& operator=(const Setup&) = delete;

    exp::Campaign recorded;
    exp::Campaign plain;
    exp::TrainCampaignConfig tcfg = train_config();
    exp::Runner runner;
    serve::ResultCache cache;
    serve::CampaignServeOptions io;
    serve::CampaignServeOptions cached;  ///< io with the cache attached
    Queries q;
    trace::query::QueryOptions qopts;
  };

  /// Empty trace and cache directories for one pass, made before the
  /// set-up clock starts.  The file system is then flushed, so the
  /// previous pass's deletions and write-back do not land inside this
  /// pass's timed phases: without the flush, mkdir alone swung between
  /// 0.03 and 3 ms and a whole pass by 30% on an ext4 volume mounted
  /// with online discard.
  Dirs fresh_dirs() const {
    fs::remove_all(p_.work_dir);
    Dirs d{p_.work_dir + "/traces", p_.work_dir + "/cache"};
    fs::create_directories(d.traces);
    fs::create_directories(d.cache);
    const int fd = ::open(p_.work_dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0 || ::syncfs(fd) != 0) {
      if (fd >= 0) {
        ::close(fd);
      }
      throw std::runtime_error("cannot flush " + p_.work_dir);
    }
    ::close(fd);
    return d;
  }

  exp::SweepSpec spec(const std::string& trace_dir) const {
    exp::SweepSpec s = train_sweep({"paper_fig2"}, p_.tiny ? 40 : 800, 5.0,
                                   p_.tiny ? 8 : 256, p_.campaign_seed);
    s.trace_dir = trace_dir;
    return s;
  }

  /// One op per query; checks that the full decode saw exactly the
  /// events the record pass wrote (per the page directories).
  static void record_queries(PassResult& r,
                             const std::vector<trace::TraceFile>& files,
                             const Queries& q,
                             const trace::query::ScanStats& delay,
                             const trace::query::ScanStats& counts) {
    r.ops.push_back(Op{"query.delay", digest_rows(*q.delay), ""});
    r.ops.push_back(Op{"query.counts", digest_rows(*q.counts), ""});
    std::uint64_t written = 0;
    for (const trace::TraceFile& f : files) {
      written += trace::MappedTrace(f.path).events();
    }
    r.check(delay.events_decoded == written && delay.events_matched == written,
            "query.delay: events decoded != events the record pass wrote");
    r.check(counts.pages == delay.pages,
            "query.counts: pages scanned != pages of the fleet");
    r.query_events = delay.events_decoded + counts.events_decoded;
  }

  /// The record, cold and warm passes must compute the same statistics.
  static void check_passes_agree(PassResult& r) {
    const auto find = [&r](const std::string& name) -> const Op* {
      for (const Op& op : r.ops) {
        if (op.name == name) {
          return &op;
        }
      }
      return nullptr;
    };
    const Op* rec = find("record.cell0");
    const Op* cold = find("cold.cell0");
    const Op* warm = find("warm.cell0");
    r.check(rec != nullptr && cold != nullptr && warm != nullptr &&
                rec->digest == cold->digest && cold->digest == warm->digest,
            "trace_serve: record, cold and warm passes disagree");
  }

  WorkloadParams p_;
};

}  // namespace

std::string hex16(std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(i)] = kHex[(v >> (60 - 4 * i)) & 0xf];
  }
  return out;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const WorkloadParams& params) {
  if (name == "clique_paper") {
    return std::make_unique<CliquePaper>(params);
  }
  if (name == "grid_lattice") {
    return std::make_unique<GridLattice>(params);
  }
  if (name == "trace_serve") {
    return std::make_unique<TraceServe>(params);
  }
  throw std::invalid_argument("unknown workload `" + std::string(name) + "`");
}

}  // namespace perfbench
