#include "core/method.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/owd_trend.hpp"
#include "core/queueing_transport.hpp"
#include "core/scenario.hpp"
#include "util/require.hpp"

namespace csmabw::core {
namespace {

/// A queueing link whose steady-state service rate corresponds to 6 Mb/s
/// for 1500-byte packets (service 2 ms), with an accelerated head that
/// mimics the WLAN transient (same model as estimator_test).
QueueingTransport::Config transient_link(std::uint64_t seed = 1) {
  QueueingTransport::Config cfg;
  cfg.seed = seed;
  cfg.probe_service = [](int index, stats::Rng& rng) {
    const double level = index < 6 ? 0.0012 : 0.002;
    return rng.uniform(level * 0.95, level * 1.05);
  };
  return cfg;
}

TEST(MethodRegistry, GlobalHasAllBuiltins) {
  const MethodRegistry& registry = MethodRegistry::global();
  for (const char* name : {"train_sweep", "bisection", "slops",
                           "packet_pair", "steady_state"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  const std::vector<std::string> names = registry.names();
  EXPECT_GE(names.size(), 5u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(MethodRegistry, CreateRejectsUnknownName) {
  try {
    (void)MethodRegistry::global().create("pathchirp");
    FAIL() << "expected PreconditionError";
  } catch (const util::PreconditionError& e) {
    // The error lists the registered names for discoverability.
    EXPECT_NE(std::string(e.what()).find("slops"), std::string::npos);
  }
  EXPECT_THROW((void)MethodRegistry::global().create(""),
               util::PreconditionError);
  EXPECT_THROW((void)MethodRegistry::global().create(":train_length=5"),
               util::PreconditionError);
}

TEST(MethodRegistry, CreateRejectsUnknownOptionKeys) {
  EXPECT_THROW((void)MethodRegistry::global().create("slops:train_lenght=50"),
               util::PreconditionError);
  EXPECT_THROW((void)MethodRegistry::global().create("packet_pair:foo=1"),
               util::PreconditionError);
}

TEST(MethodRegistry, CreateRejectsMalformedAndInvalidOptionValues) {
  EXPECT_THROW((void)MethodRegistry::global().create("slops:train_length"),
               util::PreconditionError);
  EXPECT_THROW(
      (void)MethodRegistry::global().create("packet_pair:pairs=many"),
      util::PreconditionError);
  // Well-formed but violating the method's option contract.
  EXPECT_THROW((void)MethodRegistry::global().create("packet_pair:pairs=0"),
               util::PreconditionError);
  EXPECT_THROW(
      (void)MethodRegistry::global().create("train_sweep:grid=1"),
      util::PreconditionError);
  EXPECT_THROW(
      (void)MethodRegistry::global().create("bisection:rel_tol=1.5"),
      util::PreconditionError);
}

TEST(MethodRegistry, RejectsDuplicateAndEmptyRegistration) {
  // A custom tool: a builtin made from its spec stands in for one.
  const MethodRegistry::Factory pairs = [](const util::Options&) {
    return MethodRegistry::global().create("packet_pair");
  };
  MethodRegistry registry;
  registry.add("demo", pairs);
  EXPECT_TRUE(registry.contains("demo"));
  EXPECT_THROW(registry.add("demo", pairs), util::PreconditionError);
  EXPECT_THROW(registry.add("", pairs), util::PreconditionError);
  EXPECT_THROW(registry.add("nullfactory", nullptr),
               util::PreconditionError);
}

TEST(SplitMethodList, SplitsSemicolonsAndBareCommas) {
  EXPECT_EQ(split_method_list("slops"),
            (std::vector<std::string>{"slops"}));
  EXPECT_EQ(split_method_list("slops,packet_pair"),
            (std::vector<std::string>{"slops", "packet_pair"}));
  EXPECT_EQ(split_method_list("slops:train_length=50,trains_per_rate=3;"
                              "packet_pair"),
            (std::vector<std::string>{"slops:train_length=50,"
                                      "trains_per_rate=3",
                                      "packet_pair"}));
  EXPECT_THROW((void)split_method_list(""), util::PreconditionError);
  EXPECT_THROW((void)split_method_list("a;;b"), util::PreconditionError);
  EXPECT_THROW((void)split_method_list("a,,b"), util::PreconditionError);
}

TEST(Methods, EveryBuiltinRunsOverAQueueingLink) {
  // All five tools, created purely from spec strings, measure the same
  // 6 Mb/s queueing link through the uniform interface.
  const std::vector<std::string> specs = {
      "train_sweep:train_length=30,trains_per_rate=4,grid=6",
      "bisection:train_length=30,trains_per_rate=4",
      "slops:train_length=30,trains_per_rate=3",
      "packet_pair:pairs=40",
      "steady_state:train_length=200,skip_head=20",
  };
  for (const std::string& spec : specs) {
    QueueingTransport link(transient_link());
    const auto method = MethodRegistry::global().create(spec);
    const MeasurementReport report = method->run(link, /*seed=*/1);
    EXPECT_EQ(report.method, spec.substr(0, spec.find(':')));
    // The 6 Mb/s service rate: packet pairs ride the accelerated head
    // (10 Mb/s), every other tool lands near 6.
    EXPECT_GT(report.estimate_bps, 4e6) << spec;
    EXPECT_LT(report.estimate_bps, 12e6) << spec;
  }
}

TEST(Methods, ReportsCarryMethodSpecificMetrics) {
  QueueingTransport link(transient_link());
  const auto slops = MethodRegistry::global().create(
      "slops:train_length=30,trains_per_rate=1,max_iterations=4");
  const MeasurementReport report = slops->run(link, 1);
  ASSERT_TRUE(report.has_metric("low_bps"));
  ASSERT_TRUE(report.has_metric("high_bps"));
  EXPECT_LE(report.metric("low_bps"), report.metric("high_bps"));
  EXPECT_DOUBLE_EQ(
      report.estimate_bps,
      0.5 * (report.metric("low_bps") + report.metric("high_bps")));
  EXPECT_FALSE(report.has_metric("nope"));
  EXPECT_THROW((void)report.metric("nope"), util::PreconditionError);
}

TEST(Methods, TrainSweepFillsCurve) {
  QueueingTransport link(transient_link());
  const auto sweep = MethodRegistry::global().create(
      "train_sweep:train_length=30,trains_per_rate=2,grid=5");
  const MeasurementReport report = sweep->run(link, 1);
  ASSERT_EQ(report.curve.points.size(), 5u);
  EXPECT_DOUBLE_EQ(report.curve.points.front().input_bps, 250e3);
  EXPECT_DOUBLE_EQ(report.curve.points.back().input_bps, 12e6);
  EXPECT_EQ(report.trains_sent, 10);
  EXPECT_EQ(report.probes_sent, 300);
}

TEST(Methods, SameSeedSameTransportStreamIsBitIdentical) {
  for (const char* spec :
       {"bisection:train_length=20,trains_per_rate=2,max_iterations=6",
        "slops:train_length=20,trains_per_rate=2,max_iterations=6",
        "packet_pair:pairs=25"}) {
    QueueingTransport a(transient_link(9));
    QueueingTransport b(transient_link(9));
    const MeasurementReport ra =
        MethodRegistry::global().create(spec)->run(a, 42);
    const MeasurementReport rb =
        MethodRegistry::global().create(spec)->run(b, 42);
    EXPECT_EQ(ra.estimate_bps, rb.estimate_bps) << spec;
    EXPECT_EQ(ra.trains_sent, rb.trains_sent) << spec;
    EXPECT_EQ(ra.metrics, rb.metrics) << spec;
  }
}

TEST(Methods, SteadyStateUsesExactPathOnSimTransport) {
  ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.contenders.push_back(StationSpec::poisson(BitRate::mbps(4.0), 1500));
  SimTransport link(cfg);
  const auto method = MethodRegistry::global().create(
      "steady_state:duration_s=1.2,measure_from_s=0.6");
  const MeasurementReport report = method->run(link, 5);
  EXPECT_DOUBLE_EQ(report.metric("exact"), 1.0);
  // Fair share against a 4 Mb/s contender on a ~6.9 Mb/s link.
  EXPECT_GT(report.estimate_bps, 2e6);
  EXPECT_LT(report.estimate_bps, 6e6);
  EXPECT_GT(report.metric("contenders_total_bps"), 1e6);
}

TEST(Methods, SteadyStateFallsBackToTailDispersion) {
  QueueingTransport link(transient_link());
  const auto method = MethodRegistry::global().create(
      "steady_state:train_length=300,skip_head=30");
  const MeasurementReport report = method->run(link, 1);
  EXPECT_DOUBLE_EQ(report.metric("exact"), 0.0);
  // The tail dispersion reads the 6 Mb/s steady service rate, not the
  // accelerated 10 Mb/s head.
  EXPECT_NEAR(report.estimate_bps, 6e6, 0.4e6);
  EXPECT_EQ(report.trains_sent, 1);
}

/// Decorator that corrupts the first `lose_first` trains from an inner
/// transport (one packet marked lost each).
class LoseFirstTransport : public ProbeTransport {
 public:
  LoseFirstTransport(ProbeTransport& inner, int lose_first)
      : inner_(inner), lose_first_(lose_first) {}

  TrainResult send_train(const traffic::TrainSpec& spec) override {
    TrainResult r = inner_.send_train(spec);
    if (count_++ < lose_first_ && !r.packets.empty()) {
      r.packets[r.packets.size() / 2].lost = true;
    }
    return r;
  }

 private:
  ProbeTransport& inner_;
  int lose_first_;
  int count_ = 0;
};

TEST(Methods, TrainCountersAreUniformAcrossMethodsUnderLoss) {
  // Every method counts attempts in trains_sent, their packets in
  // probes_sent and the lossy subset in trains_lost, so probing cost is
  // comparable across the shared campaign schema.  Three trains per
  // probed rate keep every rate measurable with the first two lost.
  struct Case {
    const char* spec;
    int trains_sent;
    int packets_per_train;
  };
  for (const Case& c : {
           Case{"train_sweep:train_length=20,trains_per_rate=3,grid=2", 6,
                20},
           Case{"bisection:train_length=20,trains_per_rate=3,"
                "max_iterations=2",
                6, 20},
           Case{"slops:train_length=20,trains_per_rate=3,max_iterations=2",
                6, 20},
           Case{"packet_pair:pairs=3", 3, 2},
           Case{"steady_state:train_length=100,skip_head=10,max_trains=3", 3,
                100},
       }) {
    QueueingTransport inner(transient_link());
    LoseFirstTransport lossy(inner, 2);
    const MeasurementReport report =
        MethodRegistry::global().create(c.spec)->run(lossy, 1);
    EXPECT_EQ(report.trains_sent, c.trains_sent) << c.spec;
    EXPECT_EQ(report.trains_lost, 2) << c.spec;
    EXPECT_EQ(report.probes_sent, report.trains_sent * c.packets_per_train)
        << c.spec;
  }
}

TEST(Methods, SteadyStateFallbackRetriesLossyTrains) {
  QueueingTransport inner(transient_link());
  LoseFirstTransport lossy(inner, 2);
  const auto method = MethodRegistry::global().create(
      "steady_state:train_length=100,skip_head=10,max_trains=3");
  const MeasurementReport report = method->run(lossy, 1);
  EXPECT_EQ(report.trains_sent, 3);
  EXPECT_EQ(report.trains_lost, 2);
  EXPECT_NEAR(report.estimate_bps, 6e6, 0.6e6);

  QueueingTransport inner2(transient_link());
  LoseFirstTransport all_lost(inner2, 1000);
  const auto method2 = MethodRegistry::global().create(
      "steady_state:train_length=100,skip_head=10,max_trains=2");
  EXPECT_THROW((void)method2->run(all_lost, 1), util::PreconditionError);
}

}  // namespace
}  // namespace csmabw::core
