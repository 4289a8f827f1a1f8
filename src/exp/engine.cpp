#include "exp/engine.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
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

/// One train-campaign job: a repetition of a shard.
struct RepJob {
  int shard = 0;
  int repetition = 0;
};

/// What a repetition contributes to its shard, held until the shard's
/// last repetition lands.
struct LandedRep {
  serve::TrainRepRecord record;
  bool cached = false;
  std::int64_t sim_events = 0;  ///< computed repetitions only
  std::int64_t wall_ns = 0;     ///< computed and timed repetitions only
};

/// A shard in flight: its landed repetitions, how many are still to
/// land, and, once the last has, the folded statistics.
struct ShardSlot {
  std::once_flag sized;
  std::vector<LandedRep> landed;
  std::atomic<int> pending{0};
  std::unique_ptr<TrainCellStats> stats;
};

/// A cell's scenario, built by the first repetition that simulates and
/// shared read-only by the rest.
struct CellScenario {
  std::once_flag once;
  std::optional<core::Scenario> scenario;
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

/// The pool's job order over the shards this process runs: windows of
/// `threads` consecutive shards, each window's repetitions dealt
/// round-robin across its shards.  A window's shards fill together and
/// fold near the same time, so about two windows of records
/// (2 x threads x shard_size) are held at once.
std::vector<RepJob> make_rep_jobs(const std::vector<Shard>& shards,
                                  const serve::ShardSel& sel, int threads) {
  std::vector<int> mine;
  for (int s = 0; s < static_cast<int>(shards.size()); ++s) {
    if (sel.selects(s)) {
      mine.push_back(s);
    }
  }
  const auto window = static_cast<std::size_t>(std::max(threads, 1));
  std::vector<RepJob> jobs;
  for (std::size_t w = 0; w < mine.size(); w += window) {
    const std::size_t end = std::min(w + window, mine.size());
    for (int offset = 0, dealt = 1; dealt > 0; ++offset) {
      dealt = 0;
      for (std::size_t i = w; i < end; ++i) {
        const Shard& shard = shards[static_cast<std::size_t>(mine[i])];
        if (shard.rep_begin + offset < shard.rep_end) {
          jobs.push_back(RepJob{mine[i], shard.rep_begin + offset});
          ++dealt;
        }
      }
    }
  }
  return jobs;
}

/// Folds a shard's landed repetitions in repetition order.
std::unique_ptr<TrainCellStats> fold_shard(
    const std::vector<LandedRep>& landed, int train_length,
    const TrainCampaignConfig& cfg) {
  auto stats = std::make_unique<TrainCellStats>(train_length, cfg);
  for (const LandedRep& rep : landed) {
    if (rep.cached) {
      ++stats->obs.cached;
    } else {
      ++stats->obs.computed;
      stats->obs.sim_events += rep.sim_events;
      stats->obs.wall_ns += rep.wall_ns;
    }
    stats->add(rep.record);
  }
  return stats;
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

std::vector<TrainCellStats> run_train_campaign(
    const Campaign& campaign, const TrainCampaignConfig& cfg,
    const Runner& runner, const serve::CampaignServeOptions& io) {
  validate_serve_options(io);
  const EngineObs m = bind_engine_obs(io);
  const std::vector<Shard> shards = make_shards(campaign, cfg);
  const std::vector<RepJob> jobs = make_rep_jobs(shards, io.shard,
                                                 runner.threads());
  const std::string& trace_dir = campaign.trace_dir();
  if (!trace_dir.empty()) {
    // Once, before the pool starts: workers only create files inside.
    std::filesystem::create_directories(trace_dir);
  }

  // One job per repetition.  Each shard's records are held until its
  // last repetition lands; the worker that lands it folds them in
  // repetition order, and the shards merge in shard order below.  So
  // raw-sample order is a serial run's and the merged moments do not
  // depend on which worker ran what.  Repetitions served from the cache
  // carry the exact double bits a live run would have, so where a
  // record came from never shows in the output.
  std::vector<ShardSlot> slots(shards.size());
  for (const RepJob& job : jobs) {
    ++slots[static_cast<std::size_t>(job.shard)].pending;
  }
  // Built once, on first use: a fully served cell never builds one.
  std::vector<CellScenario> scenarios(campaign.cells().size());
  runner.for_each(static_cast<int>(jobs.size()), [&](int j) {
    const RepJob job = jobs[static_cast<std::size_t>(j)];
    const Shard& shard = shards[static_cast<std::size_t>(job.shard)];
    const Cell& cell =
        campaign.cells()[static_cast<std::size_t>(shard.cell_index)];
    const int rep = job.repetition;
    LandedRep landed;
    serve::CacheKey key;
    if (io.cache != nullptr) {  // keys are only ever used by the cache
      key = serve::train_rep_key(cell.scenario, cell.train,
                                 cfg.sample_contender_queue, rep);
    }
    if (std::optional<serve::TrainRepRecord> served =
            serve_record<serve::TrainRepRecord>(
                io, m, key, &serve::decode_train_record)) {
      landed.record = std::move(*served);
      landed.cached = true;
    } else {
      if (io.forbid_compute) {
        missing_record(cell.index, rep);
      }
      obs::ScopedSpan span(io.profiler, "exp.rep");
      span.arg("cell", cell.index);
      span.arg("rep", rep);
      const std::int64_t rep_start = m.timing ? obs::now_ns() : 0;
      CellScenario& built =
          scenarios[static_cast<std::size_t>(shard.cell_index)];
      std::call_once(built.once, [&] {
        obs::ScopedSpan build(io.profiler, "exp.scenario.build");
        built.scenario.emplace(cell.scenario);
      });
      std::unique_ptr<trace::TraceWriter> writer;
      if (!trace_dir.empty()) {
        writer = std::make_unique<trace::TraceWriter>(
            trace::train_trace_path(trace_dir, cell.index, rep),
            trace_meta_for(cell, rep));
      }
      const core::TrainRun run = built.scenario->run_train(
          cell.train, static_cast<std::uint64_t>(rep),
          cfg.sample_contender_queue, writer.get(), io.metrics);
      if (writer != nullptr) {
        writer->close();  // surface write errors here, not in ~TraceWriter
      }
      landed.record = train_rep_record(run);
      landed.sim_events = static_cast<std::int64_t>(run.sim_events);
      m.sim_events.add(landed.sim_events);
      m.sim_alloc.add(static_cast<std::int64_t>(run.sim_allocations));
      m.slot_capacity.sample(
          static_cast<std::int64_t>(run.sim_slot_capacity));
      m.rep_events.observe(landed.sim_events);
      span.arg("events", landed.sim_events);
      if (m.timing) {
        landed.wall_ns = obs::now_ns() - rep_start;
        m.rep_wall.observe(landed.wall_ns);
      }
      std::vector<unsigned char> payload;
      serve::encode_train_record(landed.record, payload);
      persist_record(io, m, key, payload);
    }

    ShardSlot& slot = slots[static_cast<std::size_t>(job.shard)];
    std::call_once(slot.sized, [&] {
      slot.landed.resize(
          static_cast<std::size_t>(shard.rep_end - shard.rep_begin));
    });
    slot.landed[static_cast<std::size_t>(rep - shard.rep_begin)] =
        std::move(landed);
    // The decrement orders this record before the last lander's fold.
    if (--slot.pending == 0) {
      slot.stats = fold_shard(slot.landed, cell.train.n, cfg);
      std::vector<LandedRep>().swap(slot.landed);
    }
  });

  obs::ScopedSpan merge_span(io.profiler, "exp.merge");
  std::vector<TrainCellStats> merged;
  merged.reserve(campaign.cells().size());
  for (const Cell& cell : campaign.cells()) {
    merged.emplace_back(cell.train.n, cfg);
    merged.back().obs.cell = cell.index;
  }
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (slots[s].stats != nullptr) {  // null: another process's shard
      merged[static_cast<std::size_t>(shards[s].cell_index)].merge(
          *slots[s].stats);
    }
  }
  return merged;
}

}  // namespace csmabw::exp
