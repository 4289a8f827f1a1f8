#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mac/station.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"
#include "traffic/source.hpp"
#include "util/options.hpp"
#include "util/registry.hpp"
#include "util/units.hpp"

namespace csmabw::traffic {

/// Everything a TrafficModel needs to put its Source on one station: the
/// simulator, the target station (sources that react to completions,
/// e.g. `saturated`, register on it for their flow), the flow id, the
/// packet size used when the model's spec has no `size=` override, and
/// a dedicated random stream.
struct SourceWiring {
  sim::Simulator& sim;
  mac::DcfStation& station;
  int flow = 0;
  int default_size_bytes = 1500;
  stats::Rng rng;
};

/// A parsed, validated traffic workload — the value behind a
/// `name:key=value,...` spec string (see TrafficModelRegistry).  One
/// model can instantiate any number of sources, each on its own station.
class TrafficModel {
 public:
  virtual ~TrafficModel() = default;

  /// The registry key this model was created under.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Canonical spec string: `TrafficModelRegistry::global().create(
  /// describe())` reconstructs an equivalent model, and two equivalent
  /// models describe identically — scenario round-tripping builds on
  /// this.
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Mean offered network-layer rate; nullopt when unbounded
  /// (`saturated` offers whatever the MAC serves).
  [[nodiscard]] virtual std::optional<BitRate> offered_rate() const = 0;

  /// The packet size this model emits given the station's default.
  [[nodiscard]] virtual int packet_size(int default_size_bytes) const = 0;

  /// Creates and wires (but does not start) this model's source.
  [[nodiscard]] virtual std::unique_ptr<Source> instantiate(
      SourceWiring wiring) const = 0;
};

/// String-keyed factory registry for traffic models — the traffic twin
/// of core::MethodRegistry, sharing its util::SpecRegistry machinery.
///
/// A spec is `name` or `name:key=value,key=value` (the util::Options
/// grammar after the colon); rates accept k/M/G suffixes ("rate=6M") and
/// durations s/ms/us ("burst=50ms").  Factories parse and validate
/// eagerly: unknown names, unknown option keys and malformed values all
/// throw util::PreconditionError at create() time.
class TrafficModelRegistry {
 public:
  /// Receives the parsed options; keys the factory does not consume are
  /// rejected by the registry after it returns.
  using Factory = util::SpecRegistry<TrafficModel>::Factory;

  /// Registers a factory; `options_help` documents the accepted option
  /// keys for discoverability listings.  Throws util::PreconditionError
  /// on an empty or duplicate name.
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

  /// Creates a model from a spec string ("onoff:rate=6M,duty=0.3").
  [[nodiscard]] std::unique_ptr<TrafficModel> create(
      std::string_view spec) const {
    return impl_.create(spec);
  }

  /// create(spec)->describe() — the canonical spelling of `spec`.
  [[nodiscard]] std::string canonical(std::string_view spec) const;

  /// Registers the four built-in models: poisson, cbr, onoff, saturated.
  static void register_builtins(TrafficModelRegistry& registry);

  /// The process-wide registry, pre-populated with the builtins.
  /// Register custom models at startup, before campaigns run: create()
  /// is safe to call concurrently, add() is not.
  static TrafficModelRegistry& global();

 private:
  util::SpecRegistry<TrafficModel> impl_{"traffic model"};
};

}  // namespace csmabw::traffic
