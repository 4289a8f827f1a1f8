#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/method.hpp"
#include "core/transient.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "obs/report.hpp"
#include "serve/campaign_io.hpp"
#include "serve/record.hpp"
#include "stats/summary.hpp"

namespace csmabw::exp {

/// How a train campaign analyzes each cell's repetitions.
struct TrainCampaignConfig {
  /// Raw-sample prefix per cell (KS tests, histograms); clamped to the
  /// cell's train length.
  int ks_prefix = 1;
  /// Additional individual raw-sample indices beyond the prefix
  /// (indices >= the cell's train length are dropped).
  std::vector<int> raw_indices;
  /// Steady-state pool size; 0 means half the cell's train length.
  int steady_tail = 0;
  /// Additionally sample contender 0's queue at probe arrivals and keep
  /// per-index stats for the first `queue_prefix` packets.
  bool sample_contender_queue = false;
  int queue_prefix = 0;
  /// Repetitions per shard: the unit that folds results, not the unit of
  /// scheduling (workers take one repetition at a time).  Each shard's
  /// repetitions fold in repetition order and shards merge in shard
  /// order, so output is bit-identical for any thread count (and any
  /// shard size, up to floating-point association in merged moments).
  /// Trace replays fold in shards of the default size.
  int shard_size = 64;
};

/// Merged per-cell result of a train campaign.  Live, cached and
/// replayed repetitions all fold in through add() and merge(), so the
/// same records in the same shard order give the same bits.
struct TrainCellStats {
  explicit TrainCellStats(const core::TransientConfig& tc) : analyzer(tc) {}
  /// An empty cell of `train_length`-packet trains, configured as
  /// run_train_campaign configures one under `cfg`: the analyzer of
  /// train_transient_config and the sampled queue prefix.
  TrainCellStats(int train_length, const TrainCampaignConfig& cfg);

  core::TransientAnalyzer analyzer;
  /// Per-train output gap (Eq. 16) across complete trains.
  stats::RunningStat output_gap_s;
  /// Contender-0 queue length at probe arrival, per packet index
  /// (non-empty only with sample_contender_queue).
  std::vector<stats::RunningStat> queue_at_arrival;
  int used = 0;
  int dropped = 0;
  /// Runtime accounting of this cell's repetitions (wall time, computed
  /// vs served counts, simulator events).  Merged per shard like every
  /// other field; wall_ns stays 0 unless the serve options carry an
  /// enabled metrics registry or profiler.  Never affects results.
  obs::CellObs obs;

  /// Folds one repetition: a dropped train is only counted, a complete
  /// one feeds the analyzer, the output gap and the queue samples.
  /// Throws when the record has fewer queue samples than the cell keeps.
  void add(const serve::TrainRepRecord& record);
  /// Adds `other`'s statistics (the next shard, in shard order).
  void merge(const TrainCellStats& other);

  /// Measured probe rate implied by the mean output gap.
  [[nodiscard]] double measured_rate_mbps(int size_bytes) const {
    const double gap = output_gap_s.mean();
    return gap > 0.0 ? size_bytes * 8.0 / gap / 1e6 : 0.0;
  }
};

/// The record a simulated repetition contributes to its cell.
[[nodiscard]] serve::TrainRepRecord train_rep_record(const core::TrainRun& run);

/// The per-cell transient analysis configuration a train campaign uses
/// for a cell of `train_length` packets: ks_prefix and steady_tail
/// clamped to the train, steady_tail defaulting to half the train.
[[nodiscard]] core::TransientConfig train_transient_config(
    int train_length, const TrainCampaignConfig& cfg);

/// Runs every cell's repetition ensemble across the runner's worker
/// pool and returns merged per-cell statistics, indexed like
/// `campaign.cells()`.  When the campaign carries a trace_dir, every
/// (cell, repetition) is additionally recorded as a binary event trace
/// (one file per repetition, deterministic names) for offline replay.
///
/// Repetition r of cell c is always `Scenario(cell.scenario).run_train(
/// cell.train, r)` — the same calls the legacy serial benches made — so
/// results depend only on (campaign_seed, cell index, repetition).  A
/// cell's Scenario is built once, by its first simulated repetition,
/// and shared read-only.
///
/// Scheduling: every repetition is one runner job (one progress tick).
/// Shards of cfg.shard_size repetitions are the unit that folds results,
/// not the unit of scheduling: a shard's records are held until its last
/// repetition lands, and the worker that lands it folds them in
/// repetition order.  Jobs walk windows of runner.threads() consecutive
/// shards, dealing each window's repetitions round-robin across its
/// shards, so a campaign with fewer shards than workers keeps every
/// worker busy and at most about 2 x threads x shard_size records are
/// held at once.
///
/// Serving: before simulating a (cell, repetition), the engine consults
/// `io.cache` (content-addressed result cache) and only executes the
/// misses, storing each computed record back as it completes.  With
/// `io.shard = I/N` only every N-th shard (in campaign order) runs in
/// this process; with `io.forbid_compute` a cache miss throws instead of
/// simulating.
/// Wherever a record comes from, the accumulation arithmetic is
/// identical — records carry the exact double bits the accumulators
/// consume — so the merged statistics (and any CSV/JSONL derived from
/// them) are byte-identical to an uncached single-process run.
[[nodiscard]] std::vector<TrainCellStats> run_train_campaign(
    const Campaign& campaign, const TrainCampaignConfig& cfg,
    const Runner& runner, const serve::CampaignServeOptions& io = {});

/// One measurement-method repetition's outcome, tagged with the campaign
/// coordinates it ran at.
struct MethodRun {
  int cell_index = 0;
  int repetition = 0;
  core::MeasurementReport report;
  /// Compute wall time of this repetition (0 when served from the
  /// cache or when observability is off) and whether it was served
  /// rather than simulated.  Purely observational.
  std::int64_t wall_ns = 0;
  bool served = false;
};

/// How a method campaign builds its transports (tools come from
/// core::MethodRegistry::global()).
struct MethodCampaignConfig {
  /// Builds the transport one repetition probes.  `seed` is the
  /// repetition's deterministic stream seed (method_rep_seed); the
  /// default builds a fresh core::SimTransport from the cell's scenario
  /// reseeded with it.
  std::function<std::unique_ptr<core::ProbeTransport>(const Cell&,
                                                      std::uint64_t seed)>
      make_transport;
};

/// The random-stream seed of method repetition `repetition` in cell
/// `cell_index`: a fork of the cell seed, disjoint from the train
/// campaign's per-repetition streams.  Depends only on
/// (campaign_seed, cell index, repetition) — never on worker scheduling.
[[nodiscard]] std::uint64_t method_rep_seed(std::uint64_t campaign_seed,
                                            int cell_index, int repetition);

/// Runs every cell's method repetitions across the worker pool: each
/// repetition creates the cell's method from the global registry, builds a
/// fresh transport seeded by method_rep_seed, and runs the tool.
/// Results are returned in (cell, repetition) order regardless of the
/// thread count.  Every cell must carry a method spec (a `methods` axis
/// on the SweepSpec); throws util::PreconditionError otherwise.
///
/// Serving as in run_train_campaign.  Jobs not selected by `io.shard`
/// return placeholder MethodRun entries with an empty report.method —
/// shard processes fill the cache, not rows, so callers in shard mode
/// ignore the return value.  A non-null `io.cache` requires the default
/// transport (content addressing hashes the cell's scenario; a custom
/// make_transport is invisible to it).
[[nodiscard]] std::vector<MethodRun> run_method_campaign(
    const Campaign& campaign, const MethodCampaignConfig& cfg,
    const Runner& runner, const serve::CampaignServeOptions& io = {});

}  // namespace csmabw::exp
