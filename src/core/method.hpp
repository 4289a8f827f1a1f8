#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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
///
/// A tool is made only from a spec string through MethodRegistry
/// (`MethodRegistry::global().create("bisection:train_length=40")`);
/// the built-in tools are private to method.cpp.
class MeasurementMethod {
 public:
  virtual ~MeasurementMethod() = default;

  /// The registry key this method was created under.
  [[nodiscard]] virtual std::string_view name() const = 0;

  [[nodiscard]] virtual MeasurementReport run(ProbeTransport& transport,
                                              std::uint64_t seed) = 0;
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

  /// Registers the five built-in tools:
  ///  - train_sweep: fixed-grid dispersion sweep fitted to Eq. 3;
  ///  - bisection: adaptive bisection on ro/ri ~= 1 (Eq. 2);
  ///  - slops: pathload's one-way-delay-trend bisection;
  ///  - packet_pair: back-to-back pairs, L / E[pair dispersion];
  ///  - steady_state: the ground-truth achievable throughput B.
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
