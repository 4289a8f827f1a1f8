#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/method.hpp"
#include "core/queueing_transport.hpp"
#include "exp/collector.hpp"
#include "exp/engine.hpp"
#include "util/require.hpp"

namespace csmabw::exp {
namespace {

/// A fast queueing-model transport factory (no WLAN simulation): the
/// service rate is 6 Mb/s for 1500-byte packets, and the stream is a
/// pure function of the repetition seed.
std::unique_ptr<core::ProbeTransport> queueing_transport(
    const Cell& cell, std::uint64_t seed) {
  (void)cell;
  core::QueueingTransport::Config cfg;
  cfg.seed = seed;
  cfg.probe_service = [](int index, stats::Rng& rng) {
    const double level = index < 6 ? 0.0012 : 0.002;
    return rng.uniform(level * 0.95, level * 1.05);
  };
  return std::make_unique<core::QueueingTransport>(cfg);
}

SweepSpec method_spec() {
  SweepSpec spec;
  spec.campaign_seed = 11;
  spec.scenarios = {"contenders=poisson:rate=2M",
                    "contenders=poisson:rate=4M"};
  spec.train_lengths = {60};
  spec.probe_mbps = {5.0};
  spec.methods = {"packet_pair:pairs=8",
                  "slops:train_length=15,trains_per_rate=1,max_iterations=4"};
  spec.repetitions = 3;
  return spec;
}

TEST(SweepSpecMethods, MethodsAxisMultipliesGridAndExpandsInnermost) {
  const SweepSpec spec = method_spec();
  EXPECT_EQ(spec.grid_size(), 2 * 2);
  const Campaign campaign(spec);
  ASSERT_EQ(campaign.size(), 4);
  // Order: cross rate outside, method innermost.
  EXPECT_EQ(campaign.cells()[0].method, "packet_pair:pairs=8");
  EXPECT_DOUBLE_EQ(campaign.cells()[0].cross_mbps, 2.0);
  EXPECT_EQ(campaign.cells()[1].method,
            "slops:train_length=15,trains_per_rate=1,max_iterations=4");
  EXPECT_DOUBLE_EQ(campaign.cells()[1].cross_mbps, 2.0);
  EXPECT_EQ(campaign.cells()[2].method, "packet_pair:pairs=8");
  EXPECT_DOUBLE_EQ(campaign.cells()[2].cross_mbps, 4.0);
}

TEST(SweepSpecMethods, ValidatesGloballyRegisteredCustomMethod) {
  // Custom tools register in the global registry at startup; from then
  // on a sweep names them like any builtin.
  SweepSpec spec = method_spec();
  spec.methods = {"test_custom_tool"};
  core::MethodRegistry& registry = core::MethodRegistry::global();
  if (!registry.contains("test_custom_tool")) {  // first run in-process
    EXPECT_THROW(spec.validate(), util::PreconditionError);
    registry.add("test_custom_tool", [](const util::Options&) {
      return core::MethodRegistry::global().create("packet_pair");
    });
  }
  EXPECT_NO_THROW(spec.validate());
  const Campaign campaign(spec);
  MethodCampaignConfig cfg;
  cfg.make_transport = queueing_transport;
  const std::vector<MethodRun> runs = run_method_campaign(
      campaign, cfg, Runner(RunnerOptions{.threads = 1, .progress = nullptr}));
  ASSERT_EQ(static_cast<std::int64_t>(runs.size()),
            campaign.total_repetitions());
  EXPECT_EQ(runs[0].report.method, "packet_pair");
}

TEST(SweepSpecMethods, ValidateRejectsBadMethodSpecs) {
  SweepSpec spec = method_spec();
  spec.methods = {"no_such_method"};
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  spec = method_spec();
  spec.methods = {"slops:no_such_option=1"};
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  spec = method_spec();
  spec.methods = {"packet_pair:pairs=zero"};
  EXPECT_THROW(spec.validate(), util::PreconditionError);
}

TEST(SweepSpecMethods, EmptyMethodsAxisKeepsLegacyGrid) {
  SweepSpec spec = method_spec();
  spec.methods.clear();
  const Campaign campaign(spec);
  ASSERT_EQ(campaign.size(), 2);
  EXPECT_TRUE(campaign.cells()[0].method.empty());
}

TEST(MethodRepSeed, DependsOnAllCoordinatesOnly) {
  const std::uint64_t s = method_rep_seed(1, 0, 0);
  EXPECT_EQ(s, method_rep_seed(1, 0, 0));
  EXPECT_NE(s, method_rep_seed(1, 0, 1));
  EXPECT_NE(s, method_rep_seed(1, 1, 0));
  EXPECT_NE(s, method_rep_seed(2, 0, 0));
  // Disjoint from the cell seed itself (the train campaign's root).
  EXPECT_NE(s, Campaign::cell_seed(1, 0));
}

TEST(MethodCampaign, RequiresAMethodOnEveryCell) {
  SweepSpec spec = method_spec();
  spec.methods.clear();
  const Campaign campaign(spec);
  const Runner runner(RunnerOptions{.threads = 1, .progress = nullptr});
  MethodCampaignConfig cfg;
  cfg.make_transport = queueing_transport;
  EXPECT_THROW((void)run_method_campaign(campaign, cfg, runner),
               util::PreconditionError);
}

TEST(MethodCampaign, ResultsAreOrderedAndComplete) {
  const Campaign campaign(method_spec());
  const Runner runner(RunnerOptions{.threads = 2, .progress = nullptr});
  MethodCampaignConfig cfg;
  cfg.make_transport = queueing_transport;
  const std::vector<MethodRun> runs =
      run_method_campaign(campaign, cfg, runner);
  ASSERT_EQ(static_cast<std::int64_t>(runs.size()),
            campaign.total_repetitions());
  int k = 0;
  for (const Cell& cell : campaign.cells()) {
    for (int rep = 0; rep < cell.repetitions; ++rep, ++k) {
      EXPECT_EQ(runs[static_cast<std::size_t>(k)].cell_index, cell.index);
      EXPECT_EQ(runs[static_cast<std::size_t>(k)].repetition, rep);
      const std::string& method =
          runs[static_cast<std::size_t>(k)].report.method;
      EXPECT_EQ(cell.method.substr(0, method.size()), method);
    }
  }
}

TEST(MethodCampaign, ThreadCountDoesNotChangeResults) {
  const Campaign campaign(method_spec());
  MethodCampaignConfig cfg;
  cfg.make_transport = queueing_transport;
  const std::vector<MethodRun> serial = run_method_campaign(
      campaign, cfg, Runner(RunnerOptions{.threads = 1, .progress = nullptr}));
  const std::vector<MethodRun> parallel = run_method_campaign(
      campaign, cfg, Runner(RunnerOptions{.threads = 4, .progress = nullptr}));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Full row comparison (coordinates, estimate, counters, serialized
    // metrics) — the formatted text is what the sinks emit, so equality
    // here is byte-identical CSV/JSONL.
    const Cell& cell = campaign.cells()[static_cast<std::size_t>(
        serial[i].cell_index)];
    const std::vector<Value> a =
        Collector::method_row(cell, serial[i].repetition, serial[i].report);
    const std::vector<Value> b = Collector::method_row(
        cell, parallel[i].repetition, parallel[i].report);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a.size(); ++c) {
      EXPECT_EQ(a[c].text(), b[c].text()) << "run " << i << " col " << c;
    }
  }
}

TEST(MethodCampaign, RepetitionsGetDistinctStreams) {
  const Campaign campaign(method_spec());
  MethodCampaignConfig cfg;
  cfg.make_transport = queueing_transport;
  const std::vector<MethodRun> runs = run_method_campaign(
      campaign, cfg, Runner(RunnerOptions{.threads = 2, .progress = nullptr}));
  // Same cell, different repetition: estimates must differ (independent
  // noise draws), unlike a naive fixed-seed implementation.
  EXPECT_NE(runs[0].report.estimate_bps, runs[1].report.estimate_bps);
}

TEST(MethodCampaign, CollectorRowMatchesSchema) {
  const Campaign campaign(method_spec());
  MethodCampaignConfig cfg;
  cfg.make_transport = queueing_transport;
  const std::vector<MethodRun> runs = run_method_campaign(
      campaign, cfg, Runner(RunnerOptions{.threads = 1, .progress = nullptr}));
  const std::vector<std::string> columns = Collector::method_columns();
  const std::vector<Value> row = Collector::method_row(
      campaign.cells()[0], runs[0].repetition, runs[0].report);
  ASSERT_EQ(row.size(), columns.size());
  Collector collector(columns);
  collector.add(row);  // schema consistency: no width mismatch throw
  EXPECT_EQ(collector.rows(), 1);
  // The details column serializes the method metrics.
  EXPECT_NE(row.back().str().find("mean_gap_s="), std::string::npos);
}

TEST(MethodCampaign, DefaultTransportIsSimulatedScenario) {
  // Without a custom factory the campaign probes the cell's WLAN
  // scenario; keep it tiny (one pair) to stay fast.
  SweepSpec spec = method_spec();
  spec.scenarios = {"contenders=poisson:rate=2M"};
  spec.methods = {"packet_pair:pairs=2"};
  spec.repetitions = 2;
  const Campaign campaign(spec);
  const std::vector<MethodRun> runs = run_method_campaign(
      campaign, MethodCampaignConfig{},
      Runner(RunnerOptions{.threads = 2, .progress = nullptr}));
  ASSERT_EQ(runs.size(), 2u);
  for (const MethodRun& run : runs) {
    EXPECT_GT(run.report.estimate_bps, 0.0);
  }
  EXPECT_NE(runs[0].report.estimate_bps, runs[1].report.estimate_bps);
}

}  // namespace
}  // namespace csmabw::exp
