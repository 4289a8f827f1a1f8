#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/transport.hpp"
#include "mac/medium.hpp"
#include "mac/packet.hpp"
#include "mac/phy.hpp"
#include "mac/wlan.hpp"
#include "topo/topology.hpp"
#include "traffic/model.hpp"
#include "traffic/probe_train.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace csmabw::core {

/// One contending station of a scenario: the traffic it carries (a
/// traffic::TrafficModelRegistry spec such as "poisson:rate=2M",
/// "onoff:rate=6M,duty=0.3,burst=50ms" or "saturated"), the packet size
/// used when the spec has no `size=` override, and an optional
/// per-station PHY data-rate override (a far station that fell back to
/// 2 Mb/s — the 802.11 rate-anomaly ingredient).
struct StationSpec {
  std::string traffic = "poisson:rate=2M";
  int size_bytes = 1500;
  std::optional<double> data_rate_bps;

  /// The classic paper workload: one Poisson flow at `rate`.
  [[nodiscard]] static StationSpec poisson(BitRate rate,
                                           int size_bytes = 1500);
  /// An always-backlogged station (Bianchi's saturation workload).
  [[nodiscard]] static StationSpec saturated(int size_bytes = 1500);

  friend bool operator==(const StationSpec&, const StationSpec&) = default;
};

/// The experimental scenario generalizing the paper's Fig 2/Fig 3: one
/// probing station, zero or more contending stations each carrying one
/// configurable traffic flow, and optionally cross-traffic sharing the
/// probing station's FIFO queue.
struct ScenarioConfig {
  mac::PhyParams phy = mac::PhyParams::dot11b_short();
  /// Carrier-sense/interference topology of the cell — a
  /// topo::TopologyRegistry spec over 1 + contenders.size() stations
  /// (station 0 is the probe).  The default bare `clique` is the
  /// paper's single collision domain; any other topology (including
  /// pinned `clique:N`, which must match the station count) is built by
  /// the registry, once per Scenario.  mac::Medium takes its
  /// complete-graph path on every complete graph, its sparse path else.
  std::string topology = "clique";
  /// One entry per contending station.
  std::vector<StationSpec> contenders;
  /// FIFO cross-traffic on the probing station (Fig 3); disabled when
  /// absent (Fig 5).  The flow rides the probe station, so any
  /// data_rate_bps override here is rejected at build time.
  std::optional<StationSpec> fifo_cross;
  std::uint64_t seed = 1;
  /// Cross-traffic warm-up before the probe enters the system.
  TimeNs warmup = TimeNs::ms(500);
  /// The probe start is additionally offset by an exponential delay with
  /// this mean, randomizing the phase against the cross-traffic (the
  /// paper sends probing sequences with Poisson spacing for the same
  /// reason).
  TimeNs probe_phase_mean = TimeNs::ms(20);
};

/// Resolves a PHY preset by name ("dot11b_short", "dot11b_long",
/// "dot11g"); throws util::PreconditionError on unknown names.
[[nodiscard]] mac::PhyParams phy_preset(const std::string& name);
[[nodiscard]] const std::vector<std::string>& phy_preset_names();

/// A whole WLAN scenario as a parsable value — the scenario grammar.
///
/// Text form: `;`-separated `key=value` fields, each optional (`phy`
/// defaults to dot11b_short, `contenders` to none)
///
///   [name=<label>;][phy=<preset>;][topology=<topo-spec>;]
///   contenders=<group>[ + <group>...][;fifo=<traffic-spec>[/<size>]]
///
/// where a contender group is `[<count>x ]<traffic-spec>[/<size>][@<rate>]`:
/// `count` repeats the station spec, `/<size>` sets StationSpec::
/// size_bytes (default 1500) and `@<rate>` sets the station's PHY
/// data-rate override.  Examples:
///
///   phy=dot11b_short;contenders=3x onoff:rate=6M,duty=0.3,burst=50ms
///   contenders=2x saturated + 1x saturated@2M          (rate anomaly)
///   name=fig3;phy=dot11b_short;contenders=1x poisson:rate=2M;fifo=poisson:rate=1M
///   topology=grid:3x3;contenders=8x poisson:rate=400k  (hidden terminals)
///
/// parse() canonicalizes every traffic spec through the global
/// TrafficModelRegistry (and `topology` through topo::TopologyRegistry),
/// so `parse(describe(s)) == s` for any spec produced by parse() or
/// describe() — the round-trip contract campaigns and CI build on.
struct ScenarioSpec {
  /// Optional label (the `name=` field); used as the campaign coordinate
  /// when set.
  std::string name;
  std::string phy_preset = "dot11b_short";
  /// Conflict-graph topology spec (topo::TopologyRegistry); the
  /// default bare `clique` — today's single collision domain — is
  /// omitted from describe(), keeping pre-topology spellings stable.
  std::string topology = "clique";
  std::vector<StationSpec> contenders;
  std::optional<StationSpec> fifo;

  /// Parses the grammar above; throws util::PreconditionError on unknown
  /// keys, unknown PHY presets, malformed groups or invalid traffic
  /// specs.
  [[nodiscard]] static ScenarioSpec parse(std::string_view text);

  /// The canonical text form (adjacent equal stations grouped as `Nx`).
  [[nodiscard]] std::string describe() const;

  /// `name` when set, else describe() — the campaign coordinate value.
  [[nodiscard]] std::string label() const;

  /// Materializes the spec into a runnable configuration.
  [[nodiscard]] ScenarioConfig to_config(std::uint64_t seed = 1) const;

  /// Total mean offered cross-traffic load of the contenders, when every
  /// contender's model declares one (nullopt if any is saturated).
  [[nodiscard]] std::optional<BitRate> offered_load() const;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// String-keyed registry of named scenario presets — the scenario twin
/// of core::MethodRegistry.  resolve() accepts either a registered name
/// or an inline grammar string, so campaign axes can mix both.
class ScenarioRegistry {
 public:
  /// Registers `spec` under `name` (the spec's own name field is set to
  /// `name`).  Throws util::PreconditionError on an empty or duplicate
  /// name.
  void add(std::string name, ScenarioSpec spec);

  [[nodiscard]] bool contains(std::string_view name) const;
  /// Registered names in sorted order.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] const ScenarioSpec& get(std::string_view name) const;

  /// The registered spec when `name_or_grammar` is a registered name,
  /// else ScenarioSpec::parse(name_or_grammar).
  [[nodiscard]] ScenarioSpec resolve(std::string_view name_or_grammar) const;

  /// Registers the built-in presets: paper_fig2, paper_fig3,
  /// rate_anomaly, bursty, hetero_rates.
  static void register_builtins(ScenarioRegistry& registry);

  /// The process-wide registry, pre-populated with the builtins.
  /// Register custom scenarios at startup, before campaigns run:
  /// resolve() is safe to call concurrently, add() is not.
  static ScenarioRegistry& global();

 private:
  std::map<std::string, ScenarioSpec, std::less<>> specs_;
};

/// The conflict graph of `cfg`'s cell, built by topo::TopologyRegistry
/// for probe + contenders; null for the bare `clique`, which needs none.
/// Throws util::PreconditionError like TopologyRegistry::build.
[[nodiscard]] topo::TopologyPtr build_topology(const ScenarioConfig& cfg);

/// Flow-id convention inside scenarios.
inline constexpr int kProbeFlow = 1000;
inline constexpr int kFifoCrossFlow = 1001;
/// Contender station i carries flow i (0-based).

/// Immutable, shareable handle to a parsed traffic model.
using TrafficModelPtr = std::shared_ptr<const traffic::TrafficModel>;

/// One fully wired WLAN cell built from a ScenarioConfig — the single
/// place in the repository that assembles a mac::WlanNetwork with
/// stations and traffic sources.  Station 0 is the probing station;
/// stations 1..k carry the contending flows 0..k-1.  Every bench and
/// example constructs its network through this builder (directly or via
/// Scenario); direct WlanNetwork wiring stays confined to core/scenario
/// and the mac tests.  Whoever observes a flow registers on its station
/// (DcfStation::on_flow); handlers add up, so a probe train or meter
/// never displaces a source's own handler.
class ScenarioCell {
 public:
  /// Builds and starts the cell; repetition r of seed s reproduces the
  /// exact random streams of every other build with (s, r).  Parses the
  /// config's traffic specs; per-repetition hot loops should prefer the
  /// prebuilt overloads (Scenario does).
  ScenarioCell(const ScenarioConfig& cfg, std::uint64_t repetition);

  /// Prebuilt-model fast path: `contender_models[i]` drives contender i
  /// and `fifo_model` (nullable) the fifo flow, so repeated builds skip
  /// re-parsing the spec strings.  The models must match the config.
  ScenarioCell(const ScenarioConfig& cfg, std::uint64_t repetition,
               const std::vector<TrafficModelPtr>& contender_models,
               const TrafficModelPtr& fifo_model);

  /// Also prebuilt: the medium reads `topology` (build_topology(cfg)).
  ScenarioCell(const ScenarioConfig& cfg, std::uint64_t repetition,
               const std::vector<TrafficModelPtr>& contender_models,
               const TrafficModelPtr& fifo_model,
               const topo::TopologyPtr& topology);

  [[nodiscard]] mac::WlanNetwork& net() { return net_; }
  [[nodiscard]] sim::Simulator& simulator() { return net_.simulator(); }
  [[nodiscard]] mac::DcfStation& probe_station() { return net_.station(0); }
  /// Contending station i (0-based; station index i + 1).
  [[nodiscard]] mac::DcfStation& contender_station(int i) {
    return net_.station(i + 1);
  }
  [[nodiscard]] int contender_count() const {
    return net_.num_stations() - 1;
  }

  /// Installs an event tap on the whole cell (medium + every station),
  /// capturing any scenario/method run built on this cell.  Install
  /// right after construction to capture the warm-up too; tracing is
  /// observational only, so the run's random streams and results are
  /// bit-identical with or without it.
  void set_trace(trace::TraceSink* sink) { net_.set_trace(sink); }

  /// Binds the cell medium's hot-path counters (`topo.medium.*`) to a
  /// metrics registry; nullptr unbinds.  Observational only.
  void set_metrics(obs::Registry* reg) { net_.set_metrics(reg); }

 private:
  mac::WlanNetwork net_;
  std::vector<std::unique_ptr<traffic::Source>> sources_;
};

/// Result of one probing-sequence repetition.
struct TrainRun {
  /// Probe packet records in sequence order (timestamps per mac::Packet).
  std::vector<mac::Packet> packets;
  bool any_dropped = false;
  /// Contender-0 queue length sampled just after each probe arrival
  /// (only when requested) — Fig 8 bottom.
  std::vector<double> contender_queue_at_arrival;

  /// Simulator runtime cost of this repetition (events stepped, slab
  /// allocations, event-slot high-water).  Deterministic per workload;
  /// feeds the observability run report at zero extra simulation cost.
  std::uint64_t sim_events = 0;
  std::uint64_t sim_allocations = 0;
  std::uint64_t sim_slot_capacity = 0;

  /// Access delays mu_i in seconds; requires !any_dropped (enforced).
  [[nodiscard]] std::vector<double> access_delays_s() const;
  /// Output gap (Eq. 16) over the departure timestamps.
  [[nodiscard]] double output_gap_s() const;
};

/// Steady-state throughputs of a long constant-rate probing run.
struct SteadyStateResult {
  BitRate probe;
  BitRate contenders_total;
  std::vector<BitRate> per_contender;
  BitRate fifo_cross;
};

/// Cross-traffic-only long run (no probe flow): per-contender delivered
/// throughputs plus the medium's counters — the saturation,
/// calibration and ablation experiments' workhorse.
struct ContentionResult {
  std::vector<BitRate> per_contender;
  BitRate aggregate;
  /// Medium counters over the WHOLE run (including [0, measure_from)).
  mac::MediumStats medium;
};

/// Result of a sequence of m trains in one long run (Section 5.1.2: m
/// probing sequences with Poisson spacing).
struct TrainSequenceResult {
  std::vector<double> gaps_s;  ///< per-train output gaps (complete trains)
  int dropped_trains = 0;

  [[nodiscard]] double mean_gap_s() const;
};

/// Builds and runs WLAN experiments for one scenario configuration.
///
/// Each run constructs a fresh ScenarioCell seeded from (seed,
/// repetition), warms the cross-traffic up, injects probe traffic and
/// harvests the records — exactly the ensemble methodology of Section 4.
/// The conflict graph belongs to the scenario: built once, here, and
/// read by every repetition's medium (shared read-only across threads).
class Scenario {
 public:
  /// Validates the PHY, parses every traffic spec and builds the graph
  /// eagerly (throws before any run starts); the models and the graph
  /// are shared with every per-repetition cell.
  explicit Scenario(ScenarioConfig cfg);

  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }

  /// One ensemble repetition: a single train of `spec` packets.
  /// `sample_contender_queue` additionally samples contender 0's queue at
  /// probe arrival instants.  A non-null `trace` records every MAC/queue
  /// event of the repetition (warm-up included) without perturbing it; a
  /// non-null `metrics` registry additionally collects the medium's
  /// `topo.medium.*` hot-path counters, equally without perturbing it.
  [[nodiscard]] TrainRun run_train(const traffic::TrainSpec& spec,
                                   std::uint64_t repetition,
                                   bool sample_contender_queue = false,
                                   trace::TraceSink* trace = nullptr,
                                   obs::Registry* metrics = nullptr) const;

  /// Long-run steady state: CBR probe at `probe_rate` from warmup until
  /// `duration`; throughput measured over [measure_from, duration).
  [[nodiscard]] SteadyStateResult run_steady_state(
      BitRate probe_rate, int probe_bytes, TimeNs duration,
      TimeNs measure_from, trace::TraceSink* trace = nullptr) const;

  /// Cross-traffic only, no probe: per-contender throughput over
  /// [measure_from, duration) and the medium counters of the whole run.
  [[nodiscard]] ContentionResult run_contention(
      TimeNs duration, TimeNs measure_from, std::uint64_t repetition = 0,
      trace::TraceSink* trace = nullptr) const;

  /// m trains of `spec` in one long run, consecutive trains separated by
  /// an exponential gap with mean `mean_spacing`.
  [[nodiscard]] TrainSequenceResult run_train_sequence(
      const traffic::TrainSpec& spec, int trains, TimeNs mean_spacing,
      std::uint64_t repetition) const;

 private:
  ScenarioConfig cfg_;
  /// Built once at construction; shared with every repetition's cell.
  std::vector<TrafficModelPtr> contender_models_;
  TrafficModelPtr fifo_model_;
  topo::TopologyPtr topology_;  ///< null for the bare `clique`
};

/// ProbeTransport implementation backed by a Scenario: every train runs
/// in a fresh warmed-up system (repetition counter advances per call).
class SimTransport : public ProbeTransport {
 public:
  explicit SimTransport(ScenarioConfig cfg) : scenario_(std::move(cfg)) {}

  TrainResult send_train(const traffic::TrainSpec& spec) override;

  [[nodiscard]] const Scenario& scenario() const { return scenario_; }

 private:
  Scenario scenario_;
  std::uint64_t next_rep_ = 0;
};

}  // namespace csmabw::core
