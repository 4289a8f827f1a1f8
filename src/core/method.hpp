#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/estimator.hpp"
#include "core/owd_trend.hpp"
#include "core/rate_response.hpp"
#include "core/transport.hpp"
#include "util/options.hpp"
#include "util/registry.hpp"

namespace csmabw::core {

/// Uniform result of one measurement-method run — the common denominator
/// of every bandwidth tool in the repository (train dispersion, SLoPS,
/// packet pairs, steady-state ground truth).
///
/// `metrics` carries method-specific key/value details in a fixed,
/// documented order (e.g. slops publishes low_bps/high_bps/
/// ambiguous_trains), so heterogeneous methods can share one campaign
/// row schema.
struct MeasurementReport {
  /// Registry key of the method that produced this report.
  std::string method;
  /// The method's headline estimate (achievable throughput on CSMA/CA
  /// links — the quantity every wired-path tool converges to, Sec 7.2).
  double estimate_bps = 0.0;
  /// Probing cost, uniform across methods: trains_sent counts every
  /// attempted train (lost ones included) and trains_lost the subset
  /// that suffered losses; probes_sent counts the packets of every
  /// attempt.
  int trains_sent = 0;
  int probes_sent = 0;
  int trains_lost = 0;
  /// Per-rate response curve, when the method sweeps one (train_sweep).
  RateResponseCurve curve;
  /// Method-specific details, fixed order per method.
  std::vector<std::pair<std::string, double>> metrics;

  [[nodiscard]] bool has_metric(std::string_view name) const;
  /// Throws util::PreconditionError when the metric is absent.
  [[nodiscard]] double metric(std::string_view name) const;
};

/// A pluggable active bandwidth measurement tool.
///
/// Contract: `run` drives the transport (the only channel to the link
/// under test) and returns a complete report.  The output must be a
/// deterministic function of (method options, the transport's random
/// stream, seed) — `seed` covers any method-internal randomness, so two
/// runs with identically seeded transports and equal seeds produce
/// identical reports regardless of threading or scheduling.
class MeasurementMethod {
 public:
  virtual ~MeasurementMethod() = default;

  /// The registry key this method was created under.
  [[nodiscard]] virtual std::string_view name() const = 0;

  [[nodiscard]] virtual MeasurementReport run(ProbeTransport& transport,
                                              std::uint64_t seed) = 0;
};

/// Fixed-grid dispersion sweep: probes `grid_points` rates between the
/// configured bounds and fits the achievable throughput to the measured
/// rate response curve (registry key "train_sweep").
class TrainSweepMethod : public MeasurementMethod {
 public:
  TrainSweepMethod(EstimatorOptions options, int grid_points);

  [[nodiscard]] std::string_view name() const override {
    return "train_sweep";
  }
  [[nodiscard]] MeasurementReport run(ProbeTransport& transport,
                                      std::uint64_t seed) override;

 private:
  EstimatorOptions opt_;
  int grid_points_;
};

/// Adaptive bisection on ro/ri ~= 1 (Eq. 2), the classic dispersion
/// methodology (registry key "bisection").
class BisectionMethod : public MeasurementMethod {
 public:
  explicit BisectionMethod(EstimatorOptions options);

  [[nodiscard]] std::string_view name() const override { return "bisection"; }
  [[nodiscard]] MeasurementReport run(ProbeTransport& transport,
                                      std::uint64_t seed) override;

 private:
  EstimatorOptions opt_;
};

/// SLoPS one-way-delay-trend bisection — pathload's machinery (registry
/// key "slops"): bisects on "does the OWD trend increase at this rate".
/// On a FIFO path this estimates the available bandwidth; on a CSMA/CA
/// link it converges to the achievable throughput (Section 7.2).
/// Metrics: low_bps, high_bps (final bracket), ambiguous_trains.
class SlopsMethod : public MeasurementMethod {
 public:
  explicit SlopsMethod(SlopsOptions options);

  [[nodiscard]] std::string_view name() const override { return "slops"; }
  [[nodiscard]] MeasurementReport run(ProbeTransport& transport,
                                      std::uint64_t seed) override;

 private:
  SlopsOptions opt_;
};

struct PacketPairMethodOptions {
  int size_bytes = 1500;
  int pairs = 100;

  void validate() const;
};

/// Back-to-back packet pairs (Section 7.3; registry key "packet_pair"):
/// estimates L / E[pair dispersion], the classic capacity reading.  On a
/// CSMA/CA link it targets the achievable throughput and, because every
/// pair rides the transient, overestimates even that (Fig 16).
/// Metrics: mean_gap_s, pairs_used.
class PacketPairMethod : public MeasurementMethod {
 public:
  explicit PacketPairMethod(PacketPairMethodOptions options);

  [[nodiscard]] std::string_view name() const override {
    return "packet_pair";
  }
  [[nodiscard]] MeasurementReport run(ProbeTransport& transport,
                                      std::uint64_t seed) override;

 private:
  PacketPairMethodOptions opt_;
};

struct SteadyStateMethodOptions {
  /// Saturating probe rate for the long-run measurement.
  double probe_mbps = 16.0;
  int size_bytes = 1500;
  /// Exact (simulator) path: long-run duration and measurement window
  /// start.  measure_from_s must be >= the scenario warm-up.
  double duration_s = 9.0;
  double measure_from_s = 1.0;
  /// Generic-transport fallback: one long saturating train; the rate is
  /// read from the tail dispersion after `skip_head` transient packets.
  /// Trains with losses are retried up to `max_trains` attempts.
  int train_length = 600;
  int skip_head = 150;
  int max_trains = 3;

  void validate() const;
};

/// Ground-truth achievable throughput B (registry key "steady_state").
///
/// On a SimTransport it runs the scenario's exact long-run steady state
/// (what the paper's figures use as B); on any other transport it falls
/// back to the tail dispersion of one long saturating train.  The
/// `exact` metric records which path ran (1 = exact, 0 = fallback).
class SteadyStateMethod : public MeasurementMethod {
 public:
  explicit SteadyStateMethod(SteadyStateMethodOptions options);

  [[nodiscard]] std::string_view name() const override {
    return "steady_state";
  }
  [[nodiscard]] MeasurementReport run(ProbeTransport& transport,
                                      std::uint64_t seed) override;

 private:
  SteadyStateMethodOptions opt_;
};

/// String-keyed factory registry for measurement methods — a
/// util::SpecRegistry (`name` or `name:key=value,...` specs, eager
/// validation: unknown names, unknown option keys and malformed values
/// all throw util::PreconditionError at create() time, before any
/// campaign work starts).
class MethodRegistry {
 public:
  /// Receives the parsed options; keys the factory does not consume are
  /// rejected by the registry after it returns.
  using Factory = util::SpecRegistry<MeasurementMethod>::Factory;

  /// Registers a factory; `options_help` documents the accepted option
  /// keys for discoverability listings (--list-methods).  Throws
  /// util::PreconditionError on an empty or duplicate name.
  void add(std::string name, Factory factory, std::string options_help = "") {
    impl_.add(std::move(name), std::move(factory), std::move(options_help));
  }

  [[nodiscard]] bool contains(std::string_view name) const {
    return impl_.contains(name);
  }
  /// Registered names in sorted order.
  [[nodiscard]] std::vector<std::string> names() const {
    return impl_.names();
  }
  /// The option-key documentation string registered for `name`.
  [[nodiscard]] const std::string& help(std::string_view name) const {
    return impl_.help(name);
  }

  /// Creates a method from a spec string ("slops:train_length=50").
  [[nodiscard]] std::unique_ptr<MeasurementMethod> create(
      std::string_view spec) const {
    return impl_.create(spec);
  }

  /// Registers the five built-in tools: train_sweep, bisection, slops,
  /// packet_pair, steady_state.
  static void register_builtins(MethodRegistry& registry);

  /// The process-wide registry, pre-populated with the builtins.
  /// Register custom methods at startup, before campaigns run: create()
  /// is safe to call concurrently, add() is not.
  static MethodRegistry& global();

 private:
  util::SpecRegistry<MeasurementMethod> impl_{"measurement method"};
};

/// Splits a method-list string into individual specs.  Specs are
/// separated by ';' (option lists use ','); as a convenience, a segment
/// without options may also use ',' as the separator, so both
/// "slops,packet_pair" and "slops:train_length=50;packet_pair" parse.
/// Empty elements throw util::PreconditionError.
[[nodiscard]] std::vector<std::string> split_method_list(
    std::string_view text);

}  // namespace csmabw::core
