#include "exp/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "util/require.hpp"

namespace csmabw::exp {
namespace {

SweepSpec small_spec() {
  SweepSpec spec;
  spec.campaign_seed = 21;
  spec.scenarios = {"contenders=poisson:rate=2M",
                    "contenders=poisson:rate=4M"};
  spec.train_lengths = {40};
  spec.probe_mbps = {5.0};
  spec.repetitions = 24;
  return spec;
}

std::vector<TrainCellStats> run_with_threads(const Campaign& campaign,
                                             const TrainCampaignConfig& cfg,
                                             int threads) {
  RunnerOptions opts;
  opts.threads = threads;
  return run_train_campaign(campaign, cfg, Runner(opts));
}

TEST(TrainCampaign, ThreadCountDoesNotChangeResults) {
  const Campaign campaign(small_spec());
  // Shards of 8 at 4 threads, and the default shards of 64 (one per
  // cell, fewer than the workers) at 8.
  for (const auto& [shard_size, threads] :
       {std::pair{8, 4}, std::pair{64, 8}}) {
    SCOPED_TRACE("shard_size " + std::to_string(shard_size) + ", threads " +
                 std::to_string(threads));
    TrainCampaignConfig cfg;
    cfg.ks_prefix = 4;
    cfg.shard_size = shard_size;
    const auto serial = run_with_threads(campaign, cfg, 1);
    const auto parallel = run_with_threads(campaign, cfg, threads);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t c = 0; c < serial.size(); ++c) {
      EXPECT_EQ(serial[c].used, parallel[c].used);
      EXPECT_EQ(serial[c].dropped, parallel[c].dropped);
      EXPECT_EQ(serial[c].obs.computed, parallel[c].obs.computed);
      // Bit-identical: the shard decomposition, the fold order inside a
      // shard and the merge order are fixed; only the worker that runs
      // each repetition varies.
      EXPECT_EQ(serial[c].output_gap_s.mean(),
                parallel[c].output_gap_s.mean());
      EXPECT_EQ(serial[c].analyzer.steady_mean(),
                parallel[c].analyzer.steady_mean());
      for (int i = 0; i < 40; ++i) {
        EXPECT_EQ(serial[c].analyzer.mean_at(i),
                  parallel[c].analyzer.mean_at(i));
      }
      for (int i = 0; i < cfg.ks_prefix; ++i) {
        EXPECT_EQ(serial[c].analyzer.ks_at(i), parallel[c].analyzer.ks_at(i));
        const auto a = serial[c].analyzer.sample_at(i);
        const auto b = parallel[c].analyzer.sample_at(i);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t k = 0; k < a.size(); ++k) {
          EXPECT_EQ(a[k], b[k]);
        }
      }
    }
  }
}

TEST(TrainCampaign, ScenarioAxisIsThreadCountInvariant) {
  // The determinism contract extends to scenario-axis campaigns,
  // including bursty (onoff) and saturated heterogeneous-rate cells.
  SweepSpec spec;
  spec.campaign_seed = 77;
  spec.scenarios = {"paper_fig2",
                    "contenders=1x onoff:rate=3M,duty=0.3,burst=20ms",
                    "rate_anomaly"};
  spec.train_lengths = {30};
  spec.repetitions = 12;
  const Campaign campaign(spec);
  TrainCampaignConfig cfg;
  cfg.shard_size = 4;
  const auto serial = run_with_threads(campaign, cfg, 1);
  const auto parallel = run_with_threads(campaign, cfg, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    EXPECT_EQ(serial[c].used, parallel[c].used);
    EXPECT_EQ(serial[c].dropped, parallel[c].dropped);
    if (serial[c].used > 0) {
      EXPECT_EQ(serial[c].output_gap_s.mean(),
                parallel[c].output_gap_s.mean());
      EXPECT_EQ(serial[c].analyzer.mean_at(0),
                parallel[c].analyzer.mean_at(0));
    }
  }
}

TEST(TrainCampaign, ShardMergeMatchesSerialAccumulation) {
  const Campaign campaign(small_spec());
  TrainCampaignConfig cfg;
  cfg.ks_prefix = 3;
  cfg.shard_size = 7;  // deliberately does not divide the 24 repetitions
  const auto engine = run_with_threads(campaign, cfg, 2);

  for (const Cell& cell : campaign.cells()) {
    // Reference: the legacy hand-rolled serial loop.
    core::TransientConfig tc;
    tc.train_length = cell.train.n;
    tc.ks_prefix = 3;
    tc.steady_tail = cell.train.n / 2;
    core::TransientAnalyzer reference(tc);
    const core::Scenario scenario(cell.scenario);
    int used = 0;
    int dropped = 0;
    for (int rep = 0; rep < cell.repetitions; ++rep) {
      const core::TrainRun run =
          scenario.run_train(cell.train, static_cast<std::uint64_t>(rep));
      if (run.any_dropped) {
        ++dropped;
        continue;
      }
      reference.add_repetition(run.access_delays_s());
      ++used;
    }

    const TrainCellStats& merged =
        engine[static_cast<std::size_t>(cell.index)];
    EXPECT_EQ(merged.used, used);
    EXPECT_EQ(merged.dropped, dropped);
    ASSERT_GT(used, 0);
    // Raw samples are order-identical; merged moments agree to
    // floating-point association error.
    for (int i = 0; i < 3; ++i) {
      const auto a = reference.sample_at(i);
      const auto b = merged.analyzer.sample_at(i);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k], b[k]);
      }
      EXPECT_EQ(merged.analyzer.ks_at(i), reference.ks_at(i));
    }
    for (int i = 0; i < cell.train.n; ++i) {
      EXPECT_NEAR(merged.analyzer.mean_at(i), reference.mean_at(i),
                  1e-12 * std::abs(reference.mean_at(i)));
    }
    EXPECT_NEAR(merged.analyzer.steady_mean(), reference.steady_mean(),
                1e-12 * reference.steady_mean());
  }
}

TEST(TrainCampaign, QueueSamplingStatsPerIndex) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"contenders=poisson:rate=4M"};
  spec.repetitions = 8;
  const Campaign campaign(spec);
  TrainCampaignConfig cfg;
  cfg.sample_contender_queue = true;
  cfg.queue_prefix = 10;
  cfg.shard_size = 3;
  const auto results = run_with_threads(campaign, cfg, 2);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].queue_at_arrival.size(), 10u);
  EXPECT_EQ(results[0].queue_at_arrival[0].count(), results[0].used);
}

TEST(TrainCampaign, RunnerProgressTicksOncePerRepetition) {
  const Campaign campaign(small_spec());  // 2 cells x 24 reps, 2 shards
  Progress progress(campaign.total_repetitions(), "test", /*enabled=*/false);
  RunnerOptions opts;
  opts.threads = 4;
  opts.progress = &progress;
  (void)run_train_campaign(campaign, TrainCampaignConfig{}, Runner(opts));
  EXPECT_EQ(progress.done(), campaign.total_repetitions());
}

TEST(TrainCellStats, AddCountsADroppedRecord) {
  TrainCellStats stats(10, TrainCampaignConfig{});
  serve::TrainRepRecord record;
  record.dropped = true;
  stats.add(record);
  EXPECT_EQ(stats.dropped, 1);
  EXPECT_EQ(stats.used, 0);
  EXPECT_EQ(stats.analyzer.repetitions(), 0);
  EXPECT_TRUE(stats.output_gap_s.empty());
}

TEST(TrainCellStats, AddRejectsARecordWithTooFewQueueSamples) {
  TrainCampaignConfig cfg;
  cfg.sample_contender_queue = true;
  cfg.queue_prefix = 5;
  TrainCellStats stats(10, cfg);
  ASSERT_EQ(stats.queue_at_arrival.size(), 5u);
  serve::TrainRepRecord record;
  record.access_delays_s.assign(10, 1e-3);
  record.output_gap_s = 2e-3;
  record.queue_at_arrival.assign(4, 1.0);
  EXPECT_THROW(stats.add(record), util::PreconditionError);
  // Rejected before anything was folded in.
  EXPECT_EQ(stats.used, 0);
  EXPECT_EQ(stats.analyzer.repetitions(), 0);
  EXPECT_TRUE(stats.output_gap_s.empty());
  record.queue_at_arrival.assign(5, 1.0);
  stats.add(record);
  EXPECT_EQ(stats.used, 1);
  EXPECT_EQ(stats.queue_at_arrival[4].count(), 1);
}

TEST(TrainCellStats, MergeInShardOrderEqualsTheEngineCell) {
  const Campaign campaign(small_spec());
  TrainCampaignConfig cfg;
  cfg.ks_prefix = 3;
  cfg.shard_size = 7;  // 24 repetitions: three full shards and a partial
  cfg.sample_contender_queue = true;
  cfg.queue_prefix = 5;
  const auto engine = run_with_threads(campaign, cfg, 3);

  for (const Cell& cell : campaign.cells()) {
    // Simulate the cell serially and fold it shard by shard.
    const core::Scenario scenario(cell.scenario);
    TrainCellStats folded(cell.train.n, cfg);
    for (int begin = 0; begin < cell.repetitions; begin += cfg.shard_size) {
      TrainCellStats shard(cell.train.n, cfg);
      const int end = std::min(begin + cfg.shard_size, cell.repetitions);
      for (int rep = begin; rep < end; ++rep) {
        shard.add(train_rep_record(scenario.run_train(
            cell.train, static_cast<std::uint64_t>(rep), true)));
      }
      folded.merge(shard);
    }

    const TrainCellStats& live = engine[static_cast<std::size_t>(cell.index)];
    ASSERT_GT(live.used, 0);
    EXPECT_EQ(folded.used, live.used);
    EXPECT_EQ(folded.dropped, live.dropped);
    EXPECT_EQ(folded.output_gap_s.mean(), live.output_gap_s.mean());
    EXPECT_EQ(folded.output_gap_s.variance(), live.output_gap_s.variance());
    EXPECT_EQ(folded.analyzer.mean_curve(), live.analyzer.mean_curve());
    EXPECT_EQ(folded.analyzer.steady_mean(), live.analyzer.steady_mean());
    EXPECT_EQ(folded.analyzer.ks_curve(), live.analyzer.ks_curve());
    for (std::size_t i = 0; i < live.queue_at_arrival.size(); ++i) {
      EXPECT_EQ(folded.queue_at_arrival[i].mean(),
                live.queue_at_arrival[i].mean());
    }
  }
}

TEST(TrainCampaign, SparseRawIndicesRetainLateSamples) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"contenders=poisson:rate=2M"};
  spec.repetitions = 6;
  const Campaign campaign(spec);
  TrainCampaignConfig cfg;
  cfg.ks_prefix = 1;
  cfg.raw_indices = {30, 99};  // 99 exceeds the 40-packet train: dropped
  cfg.shard_size = 4;
  const auto results = run_with_threads(campaign, cfg, 2);
  ASSERT_EQ(results.size(), 1u);
  const auto& analyzer = results[0].analyzer;
  EXPECT_EQ(analyzer.sample_at(30).size(),
            static_cast<std::size_t>(results[0].used));
  EXPECT_THROW((void)analyzer.sample_at(20), util::PreconditionError);
}

}  // namespace
}  // namespace csmabw::exp
