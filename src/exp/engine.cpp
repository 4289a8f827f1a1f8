#include "exp/engine.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>

#include "serve/cache_key.hpp"
#include "stats/rng.hpp"
#include "trace/writer.hpp"
#include "util/require.hpp"

namespace csmabw::exp {

namespace {

struct Shard {
  int cell_index = 0;
  int rep_begin = 0;
  int rep_end = 0;
};

/// The provenance header a recorded (cell, repetition) trace carries.
trace::TraceMeta trace_meta_for(const Cell& cell, int repetition) {
  trace::TraceMeta meta;
  meta.cell = cell.index;
  meta.repetition = repetition;
  meta.train_n = cell.train.n;
  meta.train_size = cell.train.size_bytes;
  meta.train_gap_ns = cell.train.gap.count();
  meta.seed = cell.scenario.seed;
  meta.label = cell.scenario_name;
  return meta;
}

std::vector<Shard> make_shards(const Campaign& campaign,
                               const TrainCampaignConfig& cfg) {
  CSMABW_REQUIRE(cfg.shard_size >= 1, "shard_size must be >= 1");
  std::vector<Shard> shards;
  for (const Cell& cell : campaign.cells()) {
    for (int begin = 0; begin < cell.repetitions; begin += cfg.shard_size) {
      shards.push_back(Shard{cell.index, begin,
                             std::min(begin + cfg.shard_size,
                                      cell.repetitions)});
    }
  }
  return shards;
}

void validate_serve_options(const serve::CampaignServeOptions& io) {
  CSMABW_REQUIRE(io.shard.count >= 1 && io.shard.index >= 0 &&
                     io.shard.index < io.shard.count,
                 "shard selection needs 0 <= index < count");
  CSMABW_REQUIRE(!io.forbid_compute || io.cache != nullptr,
                 "forbid_compute without a cache could never produce a "
                 "result");
}

/// The engine's metric handles, bound once per campaign run.  Every
/// handle is unbound (no-op) when the serve options carry no registry.
struct EngineObs {
  obs::Counter computed;     ///< exp.reps.computed
  obs::Counter cache_hit;    ///< exp.reps.cache_hit
  obs::Counter sim_events;   ///< sim.events.processed
  obs::Counter sim_alloc;    ///< sim.slab.alloc
  obs::Gauge slot_capacity;  ///< sim.queue.slot_capacity (high-water)
  obs::Histogram rep_events;  ///< sim.rep.events (stable)
  obs::Histogram rep_wall;    ///< exp.rep.wall_ns (wall time)
  /// Whether per-repetition clock reads are worth making (an enabled
  /// registry or profiler is attached).
  bool timing = false;
};

EngineObs bind_engine_obs(const serve::CampaignServeOptions& io) {
  EngineObs m;
  if (io.metrics != nullptr) {
    m.computed = io.metrics->counter("exp.reps.computed");
    m.cache_hit = io.metrics->counter("exp.reps.cache_hit");
    m.sim_events = io.metrics->counter("sim.events.processed");
    m.sim_alloc = io.metrics->counter("sim.slab.alloc");
    m.slot_capacity = io.metrics->gauge("sim.queue.slot_capacity");
    m.rep_events = io.metrics->histogram("sim.rep.events");
    m.rep_wall = io.metrics->histogram("exp.rep.wall_ns",
                                       obs::Determinism::kWallTime);
  }
  m.timing = m.rep_wall.bound() ||
             (io.profiler != nullptr && io.profiler->enabled());
  return m;
}

/// Serves a (cell, repetition) record from the content-addressed
/// cache, else nullopt (the caller simulates).  Hits are counted and
/// per-repetition progress is ticked as cached.
template <typename Record>
std::optional<Record> serve_record(
    const serve::CampaignServeOptions& io, const EngineObs& m,
    const serve::CacheKey& key,
    bool (*decode)(const unsigned char*, std::size_t, Record*)) {
  if (io.cache == nullptr) {
    return std::nullopt;
  }
  Record record;
  const std::optional<std::vector<unsigned char>> payload =
      io.cache->lookup(key);
  // A payload that fails to decode is a corrupt entry: treat as a miss,
  // the recompute overwrites it.
  if (!payload || !decode(payload->data(), payload->size(), &record)) {
    return std::nullopt;
  }
  m.cache_hit.add();
  if (io.progress != nullptr) {
    io.progress->tick_cached();
  }
  return record;
}

/// Stores a freshly computed record in the cache and ticks it as
/// computed work.
void persist_record(const serve::CampaignServeOptions& io, const EngineObs& m,
                    const serve::CacheKey& key,
                    const std::vector<unsigned char>& payload) {
  if (io.cache != nullptr) {
    io.cache->store(key, payload);
  }
  m.computed.add();
  if (io.progress != nullptr) {
    io.progress->tick();
  }
}

[[noreturn]] void missing_record(int cell, int rep) {
  throw util::PreconditionError(
      "merge: no record for cell " + std::to_string(cell) + " rep " +
      std::to_string(rep) +
      " in the cache and computing is forbidden — did every shard "
      "process finish into this cache directory?");
}

}  // namespace

core::TransientConfig train_transient_config(int train_length,
                                             const TrainCampaignConfig& cfg) {
  core::TransientConfig tc;
  tc.train_length = train_length;
  tc.ks_prefix = std::min(cfg.ks_prefix, train_length);
  tc.steady_tail = cfg.steady_tail > 0
                       ? std::min(cfg.steady_tail, train_length)
                       : std::max(1, train_length / 2);
  for (int i : cfg.raw_indices) {
    if (i < train_length) {
      tc.extra_raw_indices.push_back(i);
    }
  }
  return tc;
}

TrainCellStats::TrainCellStats(int train_length,
                               const TrainCampaignConfig& cfg)
    : TrainCellStats(train_transient_config(train_length, cfg)) {
  if (cfg.sample_contender_queue) {
    queue_at_arrival.resize(
        static_cast<std::size_t>(std::min(cfg.queue_prefix, train_length)));
  }
}

void TrainCellStats::add(const serve::TrainRepRecord& record) {
  if (record.dropped) {
    ++dropped;
    return;
  }
  CSMABW_REQUIRE(record.queue_at_arrival.size() >= queue_at_arrival.size(),
                 "train record has fewer queue samples than the cell "
                 "keeps");
  analyzer.add_repetition(record.access_delays_s);
  output_gap_s.add(record.output_gap_s);
  for (std::size_t i = 0; i < queue_at_arrival.size(); ++i) {
    queue_at_arrival[i].add(record.queue_at_arrival[i]);
  }
  ++used;
}

void TrainCellStats::merge(const TrainCellStats& other) {
  CSMABW_REQUIRE(other.queue_at_arrival.size() == queue_at_arrival.size(),
                 "merging cells that keep different queue samples");
  analyzer.merge(other.analyzer);
  output_gap_s.merge(other.output_gap_s);
  for (std::size_t i = 0; i < queue_at_arrival.size(); ++i) {
    queue_at_arrival[i].merge(other.queue_at_arrival[i]);
  }
  used += other.used;
  dropped += other.dropped;
  obs.merge(other.obs);
}

serve::TrainRepRecord train_rep_record(const core::TrainRun& run) {
  serve::TrainRepRecord record;
  record.dropped = run.any_dropped;
  if (!run.any_dropped) {
    record.access_delays_s = run.access_delays_s();
    record.output_gap_s = run.output_gap_s();
    record.queue_at_arrival = run.contender_queue_at_arrival;
  }
  return record;
}

std::uint64_t method_rep_seed(std::uint64_t campaign_seed, int cell_index,
                              int repetition) {
  return stats::Rng(Campaign::cell_seed(campaign_seed, cell_index))
      .fork("method-rep")
      .fork(static_cast<std::uint64_t>(repetition))
      .seed();
}

int count_method_runs(const Campaign& campaign) {
  return static_cast<int>(campaign.total_repetitions());
}

std::vector<MethodRun> run_method_campaign(
    const Campaign& campaign, const MethodCampaignConfig& cfg,
    const Runner& runner, const serve::CampaignServeOptions& io) {
  validate_serve_options(io);
  const EngineObs m = bind_engine_obs(io);
  CSMABW_REQUIRE(io.cache == nullptr || !cfg.make_transport,
                 "the result cache content-addresses the cell's scenario; "
                 "a custom make_transport is invisible to the key — drop "
                 "the cache or the custom transport");
  const core::MethodRegistry& registry = core::MethodRegistry::global();

  struct Job {
    int cell_index = 0;
    int repetition = 0;
  };
  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(campaign.total_repetitions()));
  for (const Cell& cell : campaign.cells()) {
    CSMABW_REQUIRE(!cell.method.empty(),
                   "method campaign needs a method spec on every cell "
                   "(set the SweepSpec methods axis)");
    (void)registry.create(cell.method);  // fail fast, before any work runs
    for (int rep = 0; rep < cell.repetitions; ++rep) {
      jobs.push_back(Job{cell.index, rep});
    }
  }

  // One job per repetition; runner.map places results by job index, so
  // the returned order is (cell, repetition) for any thread count.
  std::vector<MethodRun> runs =
      runner.map(static_cast<int>(jobs.size()), [&](int j) {
        const Job& job = jobs[static_cast<std::size_t>(j)];
        const Cell& cell =
            campaign.cells()[static_cast<std::size_t>(job.cell_index)];
        MethodRun run;
        run.cell_index = job.cell_index;
        run.repetition = job.repetition;
        if (!io.shard.selects(j)) {
          return run;  // another process's slice; placeholder entry
        }
        const std::uint64_t seed = method_rep_seed(campaign.campaign_seed(),
                                                   job.cell_index,
                                                   job.repetition);
        serve::CacheKey key;
        if (io.cache != nullptr) {  // keys are only ever used by the cache
          key = serve::method_rep_key(cell.scenario, cell.method, seed,
                                      job.repetition);
        }
        if (std::optional<core::MeasurementReport> served =
                serve_record<core::MeasurementReport>(
                    io, m, key, &serve::decode_method_record)) {
          run.report = std::move(*served);
          run.served = true;
          return run;
        }
        if (io.forbid_compute) {
          missing_record(job.cell_index, job.repetition);
        }
        obs::ScopedSpan span(io.profiler, "exp.rep");
        span.arg("cell", job.cell_index);
        span.arg("rep", job.repetition);
        const std::int64_t rep_start = m.timing ? obs::now_ns() : 0;
        std::unique_ptr<core::ProbeTransport> transport;
        if (cfg.make_transport) {
          transport = cfg.make_transport(cell, seed);
        } else {
          core::ScenarioConfig scenario = cell.scenario;
          scenario.seed = seed;
          transport = std::make_unique<core::SimTransport>(scenario);
        }
        CSMABW_REQUIRE(transport != nullptr, "make_transport returned null");
        const std::unique_ptr<core::MeasurementMethod> method =
            registry.create(cell.method);
        run.report = method->run(*transport, seed);
        if (m.timing) {
          run.wall_ns = obs::now_ns() - rep_start;
          m.rep_wall.observe(run.wall_ns);
        }
        std::vector<unsigned char> payload;
        serve::encode_method_record(run.report, payload);
        persist_record(io, m, key, payload);
        return run;
      });
  return runs;
}

int count_train_shards(const Campaign& campaign,
                       const TrainCampaignConfig& cfg) {
  return static_cast<int>(make_shards(campaign, cfg).size());
}

std::vector<TrainCellStats> run_train_campaign(
    const Campaign& campaign, const TrainCampaignConfig& cfg,
    const Runner& runner, const serve::CampaignServeOptions& io) {
  validate_serve_options(io);
  const EngineObs m = bind_engine_obs(io);
  const std::vector<Shard> shards = make_shards(campaign, cfg);
  const std::string& trace_dir = campaign.trace_dir();
  if (!trace_dir.empty()) {
    // Once, before the pool starts: workers only create files inside.
    std::filesystem::create_directories(trace_dir);
  }

  // Each shard accumulates independently; merging in shard order keeps
  // raw-sample order identical to a serial run and the merged moments
  // independent of which worker ran which shard.  Repetitions served
  // from the cache feed the accumulators the exact double bits a live
  // run would have, so where a record came from never shows in the
  // output.
  std::vector<std::unique_ptr<TrainCellStats>> shard_stats(shards.size());
  runner.for_each(static_cast<int>(shards.size()), [&](int s) {
    const Shard& shard = shards[static_cast<std::size_t>(s)];
    const Cell& cell =
        campaign.cells()[static_cast<std::size_t>(shard.cell_index)];
    auto stats = std::make_unique<TrainCellStats>(cell.train.n, cfg);
    if (!io.shard.selects(s)) {
      // Another process's slice: contribute an empty accumulator so the
      // shard-ordered merge below stays uniform.
      shard_stats[static_cast<std::size_t>(s)] = std::move(stats);
      return;
    }

    // Built lazily: a fully served shard never constructs the scenario.
    std::optional<core::Scenario> scenario;
    for (int rep = shard.rep_begin; rep < shard.rep_end; ++rep) {
      serve::CacheKey key;
      if (io.cache != nullptr) {  // keys are only ever used by the cache
        key = serve::train_rep_key(cell.scenario, cell.train,
                                   cfg.sample_contender_queue, rep);
      }
      serve::TrainRepRecord record;
      if (std::optional<serve::TrainRepRecord> served =
              serve_record<serve::TrainRepRecord>(
                  io, m, key, &serve::decode_train_record)) {
        record = std::move(*served);
        ++stats->obs.cached;
      } else {
        if (io.forbid_compute) {
          missing_record(cell.index, rep);
        }
        obs::ScopedSpan span(io.profiler, "exp.rep");
        span.arg("cell", cell.index);
        span.arg("rep", rep);
        const std::int64_t rep_start = m.timing ? obs::now_ns() : 0;
        if (!scenario.has_value()) {
          obs::ScopedSpan build(io.profiler, "exp.scenario.build");
          scenario.emplace(cell.scenario);
        }
        std::unique_ptr<trace::TraceWriter> writer;
        if (!trace_dir.empty()) {
          writer = std::make_unique<trace::TraceWriter>(
              trace::train_trace_path(trace_dir, cell.index, rep),
              trace_meta_for(cell, rep));
        }
        const core::TrainRun run =
            scenario->run_train(cell.train, static_cast<std::uint64_t>(rep),
                                cfg.sample_contender_queue, writer.get(),
                                io.metrics);
        if (writer != nullptr) {
          writer->close();  // surface write errors here, not in ~TraceWriter
        }
        record = train_rep_record(run);
        const auto events = static_cast<std::int64_t>(run.sim_events);
        m.sim_events.add(events);
        m.sim_alloc.add(static_cast<std::int64_t>(run.sim_allocations));
        m.slot_capacity.sample(
            static_cast<std::int64_t>(run.sim_slot_capacity));
        m.rep_events.observe(events);
        span.arg("events", events);
        ++stats->obs.computed;
        stats->obs.sim_events += events;
        if (m.timing) {
          const std::int64_t wall = obs::now_ns() - rep_start;
          stats->obs.wall_ns += wall;
          m.rep_wall.observe(wall);
        }
        std::vector<unsigned char> payload;
        serve::encode_train_record(record, payload);
        persist_record(io, m, key, payload);
      }
      stats->add(record);
    }
    shard_stats[static_cast<std::size_t>(s)] = std::move(stats);
  });

  obs::ScopedSpan merge_span(io.profiler, "exp.merge");
  std::vector<TrainCellStats> merged;
  merged.reserve(campaign.cells().size());
  for (const Cell& cell : campaign.cells()) {
    merged.emplace_back(cell.train.n, cfg);
    merged.back().obs.cell = cell.index;
  }
  for (std::size_t s = 0; s < shards.size(); ++s) {
    merged[static_cast<std::size_t>(shards[s].cell_index)].merge(
        *shard_stats[s]);
  }
  return merged;
}

}  // namespace csmabw::exp
