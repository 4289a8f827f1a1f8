#include "core/method.hpp"

#include <optional>
#include <span>
#include <utility>

#include "core/fitting.hpp"
#include "core/mser_correction.hpp"
#include "core/owd_trend.hpp"
#include "core/scenario.hpp"
#include "util/require.hpp"

namespace csmabw::core {

bool MeasurementReport::has_metric(std::string_view name) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) {
      return true;
    }
  }
  return false;
}

double MeasurementReport::metric(std::string_view name) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) {
      return value;
    }
  }
  throw util::PreconditionError("report of method `" + method +
                                "` has no metric `" + std::string(name) +
                                "`");
}

namespace {

/// Sends one train and counts the attempt into the report's probing
/// cost: trains_sent and probes_sent always, trains_lost when a packet
/// went missing.  Returns the train only when it arrived complete.
std::optional<TrainResult> send_counted(ProbeTransport& transport,
                                        const traffic::TrainSpec& spec,
                                        MeasurementReport& report) {
  TrainResult train = transport.send_train(spec);
  ++report.trains_sent;
  report.probes_sent += spec.n;
  if (!train.complete()) {
    ++report.trains_lost;
    return std::nullopt;
  }
  return train;
}

/// The probe-train knobs train_sweep, bisection and slops share (only
/// their defaults differ), read from a spec and validated once.
struct TrainKnobs {
  TrainKnobs(const util::Options& o, int default_train_length,
             int default_trains_per_rate)
      : train_length(o.get("train_length", default_train_length)),
        size_bytes(o.get("size_bytes", 1500)),
        trains_per_rate(o.get("trains_per_rate", default_trains_per_rate)),
        min_rate_bps(o.get("min_rate_mbps", 0.25) * 1e6),
        max_rate_bps(o.get("max_rate_mbps", 12.0) * 1e6),
        max_iterations(o.get("max_iterations", 12)) {
    CSMABW_REQUIRE(train_length >= 3, "trains must have >= 3 packets");
    CSMABW_REQUIRE(size_bytes > 0, "probe size must be positive");
    CSMABW_REQUIRE(trains_per_rate >= 1, "need >= 1 train per rate");
    CSMABW_REQUIRE(min_rate_bps > 0.0 && max_rate_bps > min_rate_bps,
                   "invalid rate range");
    CSMABW_REQUIRE(max_iterations >= 1, "need >= 1 bisection iteration");
  }

  /// A train paced at `rate_bps`.
  [[nodiscard]] traffic::TrainSpec paced(double rate_bps) const {
    traffic::TrainSpec spec;
    spec.n = train_length;
    spec.size_bytes = size_bytes;
    spec.gap = BitRate::bps(rate_bps).gap_for(size_bytes);
    return spec;
  }

  /// Bisects the rate range for max_iterations steps: a rate that
  /// `stresses` the path becomes the upper end of the bracket, any other
  /// the lower end.  Returns the final bracket {low, high}.
  template <typename Stresses>
  [[nodiscard]] std::pair<double, double> bisect(Stresses stresses) const {
    double lo = min_rate_bps;
    double hi = max_rate_bps;
    for (int it = 0; it < max_iterations; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (stresses(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    return {lo, hi};
  }

  int train_length;
  int size_bytes;
  int trains_per_rate;
  double min_rate_bps;
  double max_rate_bps;
  int max_iterations;
};

/// The classic dispersion methodology: probe trains paced at an input
/// rate, the output rate read from the output dispersion (ro = L/gO),
/// optionally after MSER-m transient truncation (Section 7.4).
class DispersionMethod : public MeasurementMethod {
 protected:
  explicit DispersionMethod(const util::Options& o)
      : knobs_(o, 20, 10),
        mser_(o.get("mser", false)),
        mser_m_(o.get("mser_m", 2)),
        rel_tol_(o.get("rel_tol", 0.05)) {
    CSMABW_REQUIRE(rel_tol_ > 0.0 && rel_tol_ < 1.0,
                   "rel_tol must be in (0, 1)");
    CSMABW_REQUIRE(mser_m_ >= 1, "mser_m must be >= 1");
  }

  /// L/E[gO] at one input rate over trains_per_rate trains; lost trains
  /// are counted and skipped.
  [[nodiscard]] RateResponsePoint measure_rate(
      ProbeTransport& transport, double input_bps,
      MeasurementReport& report) const {
    const traffic::TrainSpec spec = knobs_.paced(input_bps);
    // MSER truncation works on the per-index mean gap series across the
    // whole train sequence (Fig 17): single-train gap series are too
    // noisy for the heuristic to separate the transient from backoff
    // randomness.
    EnsembleGapCorrector corrector(spec.n);
    double total_gap = 0.0;
    int used = 0;
    for (int t = 0; t < knobs_.trains_per_rate; ++t) {
      const std::optional<TrainResult> train =
          send_counted(transport, spec, report);
      if (!train) {
        continue;
      }
      if (mser_) {
        corrector.add_train(train->receive_times_s());
      } else {
        total_gap += train->output_gap_s();
      }
      ++used;
    }
    CSMABW_REQUIRE(used > 0, "every train at this rate was lost");

    const double bits = knobs_.size_bytes * 8.0;
    RateResponsePoint p;
    p.input_bps = input_bps;
    p.output_bps = mser_ ? bits / corrector.corrected(mser_m_).corrected_gap_s
                         : bits * used / total_gap;
    return p;
  }

  TrainKnobs knobs_;
  bool mser_;
  int mser_m_;
  /// ro/ri >= 1 - rel_tol counts as "output follows input".
  double rel_tol_;
};

/// Fixed-grid dispersion sweep: probes `grid` evenly spaced rates over
/// [min_rate, max_rate] and fits the achievable throughput to the
/// measured rate response curve (Eq. 3).
class TrainSweepMethod final : public DispersionMethod {
 public:
  static constexpr std::string_view kName = "train_sweep";

  explicit TrainSweepMethod(const util::Options& o)
      : DispersionMethod(o), grid_points_(o.get("grid", 8)) {
    CSMABW_REQUIRE(grid_points_ >= 2,
                   "train_sweep needs a grid of >= 2 rates");
  }

  [[nodiscard]] std::string_view name() const override { return kName; }

  [[nodiscard]] MeasurementReport run(ProbeTransport& transport,
                                      std::uint64_t /*seed*/) override {
    MeasurementReport report;
    report.method = name();
    const double step = (knobs_.max_rate_bps - knobs_.min_rate_bps) /
                        static_cast<double>(grid_points_ - 1);
    for (int i = 0; i < grid_points_; ++i) {
      report.curve.points.push_back(
          measure_rate(transport, knobs_.min_rate_bps + step * i, report));
    }
    report.estimate_bps = fit_achievable_throughput_bps(report.curve.points);
    report.metrics = {{"grid_points", static_cast<double>(grid_points_)}};
    return report;
  }

 private:
  int grid_points_;
};

/// Adaptive bisection for the achievable throughput: the largest rate
/// still forwarded undistorted, ro/ri ~= 1 (Eq. 2).
/// Metrics: low_bps, high_bps (final bracket; the estimate is its
/// midpoint).
class BisectionMethod final : public DispersionMethod {
 public:
  static constexpr std::string_view kName = "bisection";

  explicit BisectionMethod(const util::Options& o) : DispersionMethod(o) {}

  [[nodiscard]] std::string_view name() const override { return kName; }

  [[nodiscard]] MeasurementReport run(ProbeTransport& transport,
                                      std::uint64_t /*seed*/) override {
    MeasurementReport report;
    report.method = name();
    // Invariant: rates <= lo follow ro ~= ri; rates >= hi are distorted.
    const auto [lo, hi] = knobs_.bisect([&](double rate) {
      const RateResponsePoint p = measure_rate(transport, rate, report);
      return !(p.output_bps / p.input_bps >= 1.0 - rel_tol_);
    });
    report.estimate_bps = 0.5 * (lo + hi);
    report.metrics = {{"low_bps", lo}, {"high_bps", hi}};
    return report;
  }
};

/// SLoPS one-way-delay-trend bisection, pathload's machinery: bisects on
/// "does the OWD trend increase at this rate".  On a FIFO path this
/// estimates the available bandwidth; on a CSMA/CA link it converges to
/// the achievable throughput (Section 7.2).
/// Metrics: low_bps, high_bps (final bracket), ambiguous_trains.
class SlopsMethod final : public MeasurementMethod {
 public:
  static constexpr std::string_view kName = "slops";

  /// skip_head: leading packets to skip before the trend test, the
  /// transient truncation of Section 7.4 (0 = none).
  explicit SlopsMethod(const util::Options& o)
      : knobs_(o, 50, 5), skip_head_(o.get("skip_head", 0)) {
    CSMABW_REQUIRE(skip_head_ >= 0, "skip_head must be >= 0");
    CSMABW_REQUIRE(knobs_.train_length >= 3 + skip_head_,
                   "train too short for the trend test");
  }

  [[nodiscard]] std::string_view name() const override { return kName; }

  [[nodiscard]] MeasurementReport run(ProbeTransport& transport,
                                      std::uint64_t /*seed*/) override {
    MeasurementReport report;
    report.method = name();
    int ambiguous = 0;
    const auto [lo, hi] = knobs_.bisect([&](double rate) {
      const traffic::TrainSpec spec = knobs_.paced(rate);
      int increasing = 0;
      int votes = 0;
      for (int t = 0; t < knobs_.trains_per_rate; ++t) {
        const std::optional<TrainResult> train =
            send_counted(transport, spec, report);
        if (!train) {
          continue;
        }
        const std::vector<double> owd = one_way_delays_s(*train);
        const std::span<const double> tail =
            std::span<const double>(owd).subspan(
                static_cast<std::size_t>(skip_head_));
        switch (classify_trend(owd_trend(tail))) {
          case TrendVerdict::kIncreasing:
            ++increasing;
            ++votes;
            break;
          case TrendVerdict::kNonIncreasing:
            ++votes;
            break;
          case TrendVerdict::kAmbiguous:
            ++ambiguous;
            break;
        }
      }
      // The majority verdict of the decided trains.
      return votes > 0 && 2 * increasing > votes;
    });
    report.estimate_bps = 0.5 * (lo + hi);
    report.metrics = {{"low_bps", lo},
                      {"high_bps", hi},
                      {"ambiguous_trains", static_cast<double>(ambiguous)}};
    return report;
  }

 private:
  TrainKnobs knobs_;
  int skip_head_;
};

/// Back-to-back packet pairs (Section 7.3): estimates L / E[pair
/// dispersion], the classic capacity reading.  On a CSMA/CA link it
/// targets the achievable throughput and, because every pair rides the
/// transient, overestimates even that (Fig 16).
/// Metrics: mean_gap_s, pairs_used.
class PacketPairMethod final : public MeasurementMethod {
 public:
  static constexpr std::string_view kName = "packet_pair";

  explicit PacketPairMethod(const util::Options& o)
      : size_bytes_(o.get("size_bytes", 1500)), pairs_(o.get("pairs", 100)) {
    CSMABW_REQUIRE(size_bytes_ > 0, "size must be positive");
    CSMABW_REQUIRE(pairs_ >= 1, "need at least one pair");
  }

  [[nodiscard]] std::string_view name() const override { return kName; }

  [[nodiscard]] MeasurementReport run(ProbeTransport& transport,
                                      std::uint64_t /*seed*/) override {
    traffic::TrainSpec spec;
    spec.n = 2;
    spec.size_bytes = size_bytes_;
    spec.gap = TimeNs::zero();  // back-to-back: probes of infinite rate

    MeasurementReport report;
    report.method = name();
    double total_gap = 0.0;
    int used = 0;
    for (int i = 0; i < pairs_; ++i) {
      if (const std::optional<TrainResult> pair =
              send_counted(transport, spec, report)) {
        total_gap += pair->output_gap_s();
        ++used;
      }
    }
    CSMABW_REQUIRE(used > 0, "all pairs were lost");
    const double mean_gap_s = total_gap / used;
    report.estimate_bps = size_bytes_ * 8.0 / mean_gap_s;
    report.metrics = {{"mean_gap_s", mean_gap_s},
                      {"pairs_used", static_cast<double>(used)}};
    return report;
  }

 private:
  int size_bytes_;
  int pairs_;
};

/// Ground-truth achievable throughput B.
///
/// On a SimTransport it runs the scenario's exact long-run steady state
/// (what the paper's figures use as B); on any other transport it falls
/// back to the tail dispersion of one long saturating train.  The
/// `exact` metric records which path ran (1 = exact, 0 = fallback).
class SteadyStateMethod final : public MeasurementMethod {
 public:
  static constexpr std::string_view kName = "steady_state";

  explicit SteadyStateMethod(const util::Options& o)
      : probe_mbps_(o.get("probe_mbps", 16.0)),
        size_bytes_(o.get("size_bytes", 1500)),
        duration_s_(o.get("duration_s", 9.0)),
        measure_from_s_(o.get("measure_from_s", 1.0)),
        train_length_(o.get("train_length", 600)),
        skip_head_(o.get("skip_head", 150)),
        max_trains_(o.get("max_trains", 3)) {
    CSMABW_REQUIRE(probe_mbps_ > 0.0, "probe rate must be positive");
    CSMABW_REQUIRE(size_bytes_ > 0, "size must be positive");
    CSMABW_REQUIRE(measure_from_s_ > 0.0 && duration_s_ > measure_from_s_,
                   "need 0 < measure_from_s < duration_s");
    CSMABW_REQUIRE(train_length_ >= 3, "fallback train needs >= 3 packets");
    CSMABW_REQUIRE(skip_head_ >= 0 && skip_head_ <= train_length_ - 2,
                   "skip_head must leave >= 2 tail packets");
    CSMABW_REQUIRE(max_trains_ >= 1, "need >= 1 fallback train attempt");
  }

  [[nodiscard]] std::string_view name() const override { return kName; }

  [[nodiscard]] MeasurementReport run(ProbeTransport& transport,
                                      std::uint64_t /*seed*/) override {
    MeasurementReport report;
    report.method = name();

    if (auto* sim = dynamic_cast<SimTransport*>(&transport)) {
      const SteadyStateResult r = sim->scenario().run_steady_state(
          BitRate::mbps(probe_mbps_), size_bytes_,
          TimeNs::from_seconds(duration_s_),
          TimeNs::from_seconds(measure_from_s_));
      report.estimate_bps = r.probe.to_bps();
      report.metrics = {{"exact", 1.0},
                        {"contenders_total_bps", r.contenders_total.to_bps()},
                        {"fifo_cross_bps", r.fifo_cross.to_bps()}};
      return report;
    }

    // Generic transport: one long saturating train; the head rides the
    // transient, so the rate is read from the tail dispersion only.
    // Lossy trains are retried so a single dropped packet does not abort
    // a whole campaign repetition.
    traffic::TrainSpec spec;
    spec.n = train_length_;
    spec.size_bytes = size_bytes_;
    spec.gap = BitRate::mbps(probe_mbps_).gap_for(size_bytes_);
    for (int t = 0; t < max_trains_; ++t) {
      const std::optional<TrainResult> train =
          send_counted(transport, spec, report);
      if (!train) {
        continue;
      }
      const std::vector<double> recv = train->receive_times_s();
      const std::size_t skip = static_cast<std::size_t>(skip_head_);
      const double gap = (recv.back() - recv[skip]) /
                         static_cast<double>(recv.size() - 1 - skip);
      report.estimate_bps = size_bytes_ * 8.0 / gap;
      report.metrics = {{"exact", 0.0},
                        {"tail_packets",
                         static_cast<double>(recv.size() - skip)}};
      return report;
    }
    throw util::PreconditionError("every steady-state train was lost");
  }

 private:
  /// Saturating probe rate for the long-run measurement.
  double probe_mbps_;
  int size_bytes_;
  /// Exact (simulator) path: long-run duration and measurement window
  /// start.  measure_from_s must be >= the scenario warm-up.
  double duration_s_;
  double measure_from_s_;
  /// Generic-transport fallback: one long saturating train whose rate is
  /// read after `skip_head` transient packets, retried up to
  /// `max_trains` attempts while trains come back lossy.
  int train_length_;
  int skip_head_;
  int max_trains_;
};

template <typename Tool>
void add_builtin(MethodRegistry& registry, std::string options_help) {
  registry.add(
      std::string(Tool::kName),
      [](const util::Options& o) { return std::make_unique<Tool>(o); },
      std::move(options_help));
}

constexpr const char* kDispersionOptionsHelp =
    "train_length, size_bytes, trains_per_rate, mser, mser_m, "
    "min_rate_mbps, max_rate_mbps, max_iterations, rel_tol";

}  // namespace

void MethodRegistry::register_builtins(MethodRegistry& registry) {
  add_builtin<TrainSweepMethod>(
      registry, std::string(kDispersionOptionsHelp) + ", grid");
  add_builtin<BisectionMethod>(registry, kDispersionOptionsHelp);
  add_builtin<SlopsMethod>(
      registry,
      "train_length, size_bytes, trains_per_rate, min_rate_mbps, "
      "max_rate_mbps, max_iterations, skip_head");
  add_builtin<PacketPairMethod>(registry, "size_bytes, pairs");
  add_builtin<SteadyStateMethod>(
      registry,
      "probe_mbps, size_bytes, duration_s, measure_from_s, train_length, "
      "skip_head, max_trains");
}

MethodRegistry& MethodRegistry::global() {
  static MethodRegistry* registry = [] {
    auto* r = new MethodRegistry;
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

std::vector<std::string> split_method_list(std::string_view text) {
  std::vector<std::string> specs;
  std::size_t pos = 0;
  CSMABW_REQUIRE(!text.empty(), "method list is empty");
  while (true) {
    const std::size_t semi = text.find(';', pos);
    const std::size_t end =
        semi == std::string_view::npos ? text.size() : semi;
    const std::string_view segment = text.substr(pos, end - pos);
    CSMABW_REQUIRE(!segment.empty(), "empty element in method list `" +
                                         std::string(text) + "`");
    if (segment.find(':') == std::string_view::npos) {
      // No options in this segment: commas separate bare method names.
      std::size_t p = 0;
      while (true) {
        const std::size_t comma = segment.find(',', p);
        const std::size_t e =
            comma == std::string_view::npos ? segment.size() : comma;
        CSMABW_REQUIRE(e > p, "empty element in method list `" +
                                  std::string(text) + "`");
        specs.emplace_back(segment.substr(p, e - p));
        if (comma == std::string_view::npos) {
          break;
        }
        p = comma + 1;
      }
    } else {
      specs.emplace_back(segment);
    }
    if (semi == std::string_view::npos) {
      break;
    }
    pos = semi + 1;
  }
  return specs;
}

}  // namespace csmabw::core
