// End-to-end serving tests on the one result store, the content-
// addressed cache: warm-up, resume from a partial cache with a torn
// entry, multi-process sharding + merge (into one directory, and into
// per-host directories copied together) — each must reproduce an
// uninterrupted run's merged statistics bit-for-bit.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "exp/engine.hpp"
#include "obs/metrics.hpp"
#include "serve/result_cache.hpp"
#include "util/require.hpp"

namespace csmabw::exp {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / ("csmabw-serve-campaign-" + name);
  fs::remove_all(dir);
  return dir;
}

SweepSpec small_spec() {
  SweepSpec spec;
  spec.campaign_seed = 31;
  spec.scenarios = {"contenders=poisson:rate=2M",
                    "contenders=poisson:rate=4M"};
  spec.train_lengths = {30};
  spec.probe_mbps = {5.0};
  spec.repetitions = 10;
  return spec;
}

TrainCampaignConfig small_config() {
  TrainCampaignConfig cfg;
  cfg.ks_prefix = 2;
  cfg.shard_size = 3;  // several work shards per cell
  cfg.sample_contender_queue = true;
  cfg.queue_prefix = 5;
  return cfg;
}

Runner runner_with(int threads) {
  RunnerOptions opts;
  opts.threads = threads;
  return Runner(opts);
}

void expect_bitwise_equal(const std::vector<TrainCellStats>& a,
                          const std::vector<TrainCellStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].used, b[c].used);
    EXPECT_EQ(a[c].dropped, b[c].dropped);
    EXPECT_EQ(a[c].output_gap_s.mean(), b[c].output_gap_s.mean());
    EXPECT_EQ(a[c].output_gap_s.stddev(), b[c].output_gap_s.stddev());
    EXPECT_EQ(a[c].analyzer.steady_mean(), b[c].analyzer.steady_mean());
    for (int i = 0; i < 30; ++i) {
      EXPECT_EQ(a[c].analyzer.mean_at(i), b[c].analyzer.mean_at(i));
    }
    const auto sa = a[c].analyzer.sample_at(0);
    const auto sb = b[c].analyzer.sample_at(0);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t k = 0; k < sa.size(); ++k) {
      EXPECT_EQ(sa[k], sb[k]);
    }
    ASSERT_EQ(a[c].queue_at_arrival.size(), b[c].queue_at_arrival.size());
    for (std::size_t i = 0; i < a[c].queue_at_arrival.size(); ++i) {
      EXPECT_EQ(a[c].queue_at_arrival[i].mean(),
                b[c].queue_at_arrival[i].mean());
    }
  }
}

TEST(ServeCampaign, WarmCacheReproducesBitwiseWithZeroCompute) {
  const Campaign campaign(small_spec());
  const TrainCampaignConfig cfg = small_config();
  const auto baseline = run_train_campaign(campaign, cfg, runner_with(2));

  serve::ResultCache cache(fresh_dir("warm").string());
  obs::Registry cold_metrics;
  serve::CampaignServeOptions cold;
  cold.cache = &cache;
  cold.metrics = &cold_metrics;
  const auto first = run_train_campaign(campaign, cfg, runner_with(2), cold);
  expect_bitwise_equal(baseline, first);
  EXPECT_EQ(cold_metrics.value("exp.reps.computed"), 20);
  EXPECT_EQ(cold_metrics.value("exp.reps.cache_hit"), 0);

  obs::Registry warm_metrics;
  serve::CampaignServeOptions warm;
  warm.cache = &cache;
  warm.metrics = &warm_metrics;
  // forbid_compute proves the warm run touches the simulator zero times.
  warm.forbid_compute = true;
  const auto second = run_train_campaign(campaign, cfg, runner_with(4), warm);
  expect_bitwise_equal(baseline, second);
  EXPECT_EQ(warm_metrics.value("exp.reps.computed"), 0);
  EXPECT_EQ(warm_metrics.value("exp.reps.cache_hit"), 20);
}

TEST(ServeCampaign, ResumeFromPartialCacheReproducesBitwise) {
  const Campaign campaign(small_spec());
  const TrainCampaignConfig cfg = small_config();
  const auto baseline = run_train_campaign(campaign, cfg, runner_with(2));

  // The killed run: half the work shards stored their records.
  const fs::path dir = fresh_dir("resume");
  std::int64_t stored = 0;
  {
    serve::ResultCache cache(dir.string());
    serve::CampaignServeOptions io;
    io.cache = &cache;
    io.shard = serve::ShardSel{0, 2};
    (void)run_train_campaign(campaign, cfg, runner_with(2), io);
    stored = cache.stores();
  }
  ASSERT_GT(stored, 0);
  ASSERT_LT(stored, 20);

  // Tear one entry mid-record: a torn entry is a miss and is recomputed.
  std::vector<fs::path> entries;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.path().extension() == ".ccres") {
      entries.push_back(e.path());
    }
  }
  ASSERT_EQ(static_cast<std::int64_t>(entries.size()), stored);
  fs::resize_file(entries.front(), fs::file_size(entries.front()) - 11);

  serve::ResultCache cache(dir.string());
  obs::Registry metrics;
  serve::CampaignServeOptions io;
  io.cache = &cache;
  io.metrics = &metrics;
  const auto resumed = run_train_campaign(campaign, cfg, runner_with(4), io);
  expect_bitwise_equal(baseline, resumed);
  EXPECT_EQ(metrics.value("exp.reps.cache_hit"), stored - 1);
  EXPECT_EQ(metrics.value("exp.reps.computed"), 20 - (stored - 1));
}

/// Runs shard `i` of `n` into the cache rooted at `root`.
void run_shard_into(const Campaign& campaign, const TrainCampaignConfig& cfg,
                    const fs::path& root, int i, int n) {
  serve::ResultCache cache(root.string());
  serve::CampaignServeOptions io;
  io.cache = &cache;
  io.shard = serve::ShardSel{i, n};
  (void)run_train_campaign(campaign, cfg, runner_with(2), io);
}

/// The merge: serves every repetition from `root`, never simulating.
std::vector<TrainCellStats> merge_from(const Campaign& campaign,
                                       const TrainCampaignConfig& cfg,
                                       const fs::path& root) {
  serve::ResultCache cache(root.string());
  obs::Registry metrics;
  serve::CampaignServeOptions io;
  io.cache = &cache;
  io.forbid_compute = true;
  io.metrics = &metrics;
  auto merged = run_train_campaign(campaign, cfg, runner_with(4), io);
  EXPECT_EQ(metrics.value("exp.reps.computed"), 0);
  EXPECT_EQ(metrics.value("exp.reps.cache_hit"), 20);
  return merged;
}

TEST(ServeCampaign, ThreeWayShardMergeReproducesBitwise) {
  const Campaign campaign(small_spec());
  const TrainCampaignConfig cfg = small_config();
  const auto baseline = run_train_campaign(campaign, cfg, runner_with(4));

  const fs::path dir = fresh_dir("shards");
  for (int i = 0; i < 3; ++i) {
    run_shard_into(campaign, cfg, dir, i, 3);
  }
  expect_bitwise_equal(baseline, merge_from(campaign, cfg, dir));
}

TEST(ServeCampaign, ShardCachesCopiedTogetherMergeBitwise) {
  // The multi-host recipe: each host fills its own cache directory, the
  // directories are copied together, and the merge serves from the
  // union.  Entry names are content hashes, so the copy never conflicts.
  const Campaign campaign(small_spec());
  const TrainCampaignConfig cfg = small_config();
  const auto baseline = run_train_campaign(campaign, cfg, runner_with(4));

  const fs::path host_a = fresh_dir("host-a");
  const fs::path host_b = fresh_dir("host-b");
  run_shard_into(campaign, cfg, host_a, 0, 2);
  run_shard_into(campaign, cfg, host_b, 1, 2);
  fs::copy(host_b, host_a,
           fs::copy_options::recursive | fs::copy_options::skip_existing);
  expect_bitwise_equal(baseline, merge_from(campaign, cfg, host_a));
}

TEST(ServeCampaign, IncompleteMergeFailsLoudly) {
  const Campaign campaign(small_spec());
  const TrainCampaignConfig cfg = small_config();
  serve::ResultCache empty(fresh_dir("empty").string());
  serve::CampaignServeOptions io;
  io.cache = &empty;
  io.forbid_compute = true;
  EXPECT_THROW(
      (void)run_train_campaign(campaign, cfg, runner_with(1), io),
      util::PreconditionError);
  // Without a cache, forbid_compute could never produce a result.
  io.cache = nullptr;
  EXPECT_THROW(
      (void)run_train_campaign(campaign, cfg, runner_with(1), io),
      util::PreconditionError);
}

TEST(ServeCampaign, MethodCampaignServesFromCache) {
  SweepSpec spec;
  spec.campaign_seed = 5;
  spec.scenarios = {"contenders=poisson:rate=2M"};
  spec.train_lengths = {30};
  spec.probe_mbps = {5.0};
  spec.repetitions = 3;
  spec.methods = {"packet_pair:pairs=10"};
  const Campaign campaign(spec);

  const auto baseline =
      run_method_campaign(campaign, MethodCampaignConfig{}, runner_with(2));

  serve::ResultCache cache(fresh_dir("method").string());
  serve::CampaignServeOptions cold;
  cold.cache = &cache;
  (void)run_method_campaign(campaign, MethodCampaignConfig{}, runner_with(2),
                            cold);

  obs::Registry metrics;
  serve::CampaignServeOptions warm;
  warm.cache = &cache;
  warm.metrics = &metrics;
  warm.forbid_compute = true;
  const auto served = run_method_campaign(campaign, MethodCampaignConfig{},
                                          runner_with(1), warm);
  EXPECT_EQ(metrics.value("exp.reps.computed"), 0);
  EXPECT_EQ(metrics.value("exp.reps.cache_hit"), 3);
  ASSERT_EQ(served.size(), baseline.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].cell_index, baseline[i].cell_index);
    EXPECT_EQ(served[i].repetition, baseline[i].repetition);
    EXPECT_EQ(served[i].report.method, baseline[i].report.method);
    EXPECT_EQ(served[i].report.estimate_bps, baseline[i].report.estimate_bps);
    EXPECT_EQ(served[i].report.trains_sent, baseline[i].report.trains_sent);
    ASSERT_EQ(served[i].report.metrics.size(),
              baseline[i].report.metrics.size());
    for (std::size_t m = 0; m < served[i].report.metrics.size(); ++m) {
      EXPECT_EQ(served[i].report.metrics[m], baseline[i].report.metrics[m]);
    }
  }

  // A cache consumer with a custom transport factory is a contract
  // violation: content addressing cannot see the custom transport.
  MethodCampaignConfig custom;
  custom.make_transport = [](const Cell&, std::uint64_t) {
    return std::unique_ptr<core::ProbeTransport>();
  };
  EXPECT_THROW((void)run_method_campaign(campaign, custom, runner_with(1),
                                         warm),
               util::PreconditionError);
}

TEST(ServeCampaign, ProgressSeparatesCachedFromComputed) {
  std::ostringstream sink;
  Progress progress(10, "test", /*enabled=*/true, &sink);
  progress.tick(4);
  progress.tick_cached(6);
  EXPECT_EQ(progress.done(), 10);
  EXPECT_EQ(progress.cached(), 6);
  progress.finish();
  const std::string out = sink.str();
  EXPECT_NE(out.find("cached=6"), std::string::npos);
  EXPECT_NE(out.find("computed=4"), std::string::npos);
}

TEST(ShardSelTest, RoundRobinPartitionCoversEveryOrdinalOnce) {
  const int n = 3;
  for (int ordinal = 0; ordinal < 20; ++ordinal) {
    int owners = 0;
    for (int i = 0; i < n; ++i) {
      owners += serve::ShardSel{i, n}.selects(ordinal) ? 1 : 0;
    }
    EXPECT_EQ(owners, 1) << "ordinal " << ordinal;
  }
  EXPECT_TRUE(serve::ShardSel{}.selects(7));
}

TEST(ShardSelTest, ParseShardValidates) {
  const serve::ShardSel sel = serve::parse_shard("1/3");
  EXPECT_EQ(sel.index, 1);
  EXPECT_EQ(sel.count, 3);
  EXPECT_THROW((void)serve::parse_shard(""), util::PreconditionError);
  EXPECT_THROW((void)serve::parse_shard("3"), util::PreconditionError);
  EXPECT_THROW((void)serve::parse_shard("3/3"), util::PreconditionError);
  EXPECT_THROW((void)serve::parse_shard("-1/3"), util::PreconditionError);
  EXPECT_THROW((void)serve::parse_shard("0/0"), util::PreconditionError);
  EXPECT_THROW((void)serve::parse_shard("a/b"), util::PreconditionError);
}

TEST(ShardSelTest, ParseShardParsesEachNumberWhole) {
  for (const char* bad : {"+1/3", " 1/3", "1/+3", "1/3 ", "1 /3", "1/3x",
                          "1.0/3", "1/3/4", "/3", "1/", "99999999999/3"}) {
    try {
      (void)serve::parse_shard(bad);
      ADD_FAILURE() << "accepted `" << bad << "`";
    } catch (const util::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("--shard"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace csmabw::exp
