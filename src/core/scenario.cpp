#include "core/scenario.hpp"

#include <charconv>
#include <utility>

#include "stats/rng.hpp"
#include "topo/registry.hpp"
#include "traffic/flow_meter.hpp"
#include "traffic/source.hpp"
#include "util/options.hpp"
#include "util/require.hpp"

namespace csmabw::core {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

int parse_size(std::string_view text, std::string_view context) {
  int size = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, size);
  CSMABW_REQUIRE(ec == std::errc{} && ptr == last && size > 0,
                 "malformed packet size `" + std::string(text) + "` in `" +
                     std::string(context) + "`");
  return size;
}

/// Parses one contender group: `[<count>x ]<traffic>[/<size>][@<rate>]`.
/// Returns the repeated station spec via `out` and the repeat count.
int parse_group(std::string_view group, StationSpec* out) {
  const std::string_view full = group;
  int count = 1;
  if (!group.empty() && group.front() >= '0' && group.front() <= '9') {
    const char* first = group.data();
    const char* last = first + group.size();
    const auto [ptr, ec] = std::from_chars(first, last, count);
    CSMABW_REQUIRE(ec == std::errc{} && ptr != last && *ptr == 'x' &&
                       count >= 1,
                   "malformed contender group `" + std::string(full) +
                       "` (expected `<count>x <traffic-spec>`)");
    group.remove_prefix(static_cast<std::size_t>(ptr - first) + 1);
    group = trim(group);
  }
  StationSpec spec;
  const std::size_t at = group.find('@');
  if (at != std::string_view::npos) {
    spec.data_rate_bps = util::parse_rate_bps(trim(group.substr(at + 1)));
    group = trim(group.substr(0, at));
  }
  const std::size_t slash = group.find('/');
  if (slash != std::string_view::npos) {
    spec.size_bytes = parse_size(trim(group.substr(slash + 1)), full);
    group = trim(group.substr(0, slash));
  }
  CSMABW_REQUIRE(!group.empty(), "contender group `" + std::string(full) +
                                     "` has no traffic spec");
  // Canonicalization doubles as eager validation of the traffic spec.
  spec.traffic = traffic::TrafficModelRegistry::global().canonical(group);
  *out = spec;
  return count;
}

/// Canonical text of one group of `count` identical stations.
std::string describe_group(const StationSpec& spec, int count) {
  std::string out;
  if (count > 1) {
    out += std::to_string(count) + "x ";
  }
  out += spec.traffic;
  if (spec.size_bytes != 1500) {
    out += "/" + std::to_string(spec.size_bytes);
  }
  if (spec.data_rate_bps.has_value()) {
    out += "@" + util::format_rate(*spec.data_rate_bps);
  }
  return out;
}

void validate_name(std::string_view name) {
  CSMABW_REQUIRE(!name.empty(), "scenario name must be non-empty");
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    CSMABW_REQUIRE(ok, "scenario name `" + std::string(name) +
                           "` may only contain [A-Za-z0-9_.-]");
  }
}

}  // namespace

// ------------------------------------------------------------ StationSpec

StationSpec StationSpec::poisson(BitRate rate, int size_bytes) {
  StationSpec spec;
  spec.traffic = "poisson:rate=" + util::format_rate(rate.to_bps());
  spec.size_bytes = size_bytes;
  return spec;
}

StationSpec StationSpec::saturated(int size_bytes) {
  StationSpec spec;
  spec.traffic = "saturated";
  spec.size_bytes = size_bytes;
  return spec;
}

// ------------------------------------------------------------ PHY presets

mac::PhyParams phy_preset(const std::string& name) {
  if (name == "dot11b_short") {
    return mac::PhyParams::dot11b_short();
  }
  if (name == "dot11b_long") {
    return mac::PhyParams::dot11b_long();
  }
  if (name == "dot11g") {
    return mac::PhyParams::dot11g();
  }
  throw util::PreconditionError("unknown PHY preset: " + name);
}

const std::vector<std::string>& phy_preset_names() {
  static const std::vector<std::string> names{"dot11b_short", "dot11b_long",
                                              "dot11g"};
  return names;
}

// ----------------------------------------------------------- ScenarioSpec

ScenarioSpec ScenarioSpec::parse(std::string_view text) {
  ScenarioSpec spec;
  bool saw_name = false;
  bool saw_phy = false;
  bool saw_topology = false;
  bool saw_contenders = false;
  bool saw_fifo = false;
  CSMABW_REQUIRE(!trim(text).empty(), "scenario spec is empty");
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t semi = text.find(';', pos);
    const std::size_t end = semi == std::string_view::npos ? text.size()
                                                           : semi;
    const std::string_view field = trim(text.substr(pos, end - pos));
    CSMABW_REQUIRE(!field.empty(), "empty field in scenario spec `" +
                                       std::string(text) + "`");
    const std::size_t eq = field.find('=');
    CSMABW_REQUIRE(eq != std::string_view::npos,
                   "scenario field `" + std::string(field) +
                       "` is not of the form key=value");
    const std::string_view key = trim(field.substr(0, eq));
    const std::string_view value = trim(field.substr(eq + 1));
    if (key == "name") {
      CSMABW_REQUIRE(!saw_name, "duplicate scenario field `name`");
      saw_name = true;
      validate_name(value);
      spec.name = std::string(value);
    } else if (key == "phy") {
      CSMABW_REQUIRE(!saw_phy, "duplicate scenario field `phy`");
      saw_phy = true;
      // Throws on unknown presets.
      (void)core::phy_preset(std::string(value));
      spec.phy_preset = std::string(value);
    } else if (key == "topology") {
      CSMABW_REQUIRE(!saw_topology, "duplicate scenario field `topology`");
      saw_topology = true;
      // Canonicalization doubles as eager validation of the arg
      // grammar; the station-count check waits for build time.
      spec.topology = topo::TopologyRegistry::global().canonical(value);
    } else if (key == "contenders") {
      CSMABW_REQUIRE(!saw_contenders,
                     "duplicate scenario field `contenders`");
      saw_contenders = true;
      std::size_t gpos = 0;
      while (gpos <= value.size()) {
        const std::size_t plus = value.find('+', gpos);
        const std::size_t gend =
            plus == std::string_view::npos ? value.size() : plus;
        const std::string_view group = trim(value.substr(gpos, gend - gpos));
        CSMABW_REQUIRE(!group.empty(),
                       "empty contender group in `" + std::string(value) +
                           "`");
        StationSpec station;
        const int count = parse_group(group, &station);
        for (int k = 0; k < count; ++k) {
          spec.contenders.push_back(station);
        }
        if (plus == std::string_view::npos) {
          break;
        }
        gpos = plus + 1;
      }
    } else if (key == "fifo") {
      CSMABW_REQUIRE(!saw_fifo, "duplicate scenario field `fifo`");
      saw_fifo = true;
      StationSpec station;
      const int count = parse_group(value, &station);
      CSMABW_REQUIRE(count == 1 && !station.data_rate_bps.has_value(),
                     "fifo cross-traffic is a single flow on the probe "
                     "station; `" + std::string(value) +
                         "` may not use a count or @rate");
      spec.fifo = station;
    } else {
      throw util::PreconditionError(
          "unknown scenario field `" + std::string(key) +
          "` (known: name, phy, topology, contenders, fifo)");
    }
    if (semi == std::string_view::npos) {
      break;
    }
    pos = semi + 1;
  }
  return spec;
}

std::string ScenarioSpec::describe() const {
  std::string out;
  if (!name.empty()) {
    out += "name=" + name + ";";
  }
  out += "phy=" + phy_preset;
  if (topology != topo::kDefaultTopology) {
    out += ";topology=" + topology;
  }
  if (!contenders.empty()) {
    out += ";contenders=";
    std::size_t i = 0;
    bool first = true;
    while (i < contenders.size()) {
      std::size_t j = i;
      while (j < contenders.size() && contenders[j] == contenders[i]) {
        ++j;
      }
      if (!first) {
        out += " + ";
      }
      first = false;
      out += describe_group(contenders[i], static_cast<int>(j - i));
      i = j;
    }
  }
  if (fifo.has_value()) {
    out += ";fifo=" + describe_group(*fifo, 1);
  }
  return out;
}

std::string ScenarioSpec::label() const {
  return name.empty() ? describe() : name;
}

ScenarioConfig ScenarioSpec::to_config(std::uint64_t seed) const {
  ScenarioConfig cfg;
  cfg.phy = core::phy_preset(this->phy_preset);
  cfg.topology = topology;
  cfg.contenders = contenders;
  cfg.fifo_cross = fifo;
  cfg.seed = seed;
  return cfg;
}

std::optional<BitRate> ScenarioSpec::offered_load() const {
  const auto& registry = traffic::TrafficModelRegistry::global();
  double total = 0.0;
  for (const StationSpec& spec : contenders) {
    const std::optional<BitRate> rate =
        registry.create(spec.traffic)->offered_rate();
    if (!rate.has_value()) {
      return std::nullopt;
    }
    total += rate->to_bps();
  }
  return BitRate::bps(total);
}

// ------------------------------------------------------- ScenarioRegistry

void ScenarioRegistry::add(std::string name, ScenarioSpec spec) {
  validate_name(name);
  spec.name = name;
  const auto [it, inserted] = specs_.emplace(std::move(name),
                                             std::move(spec));
  CSMABW_REQUIRE(inserted,
                 "scenario `" + it->first + "` is already registered");
}

bool ScenarioRegistry::contains(std::string_view name) const {
  return specs_.find(name) != specs_.end();
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const auto& [name, spec] : specs_) {
    out.push_back(name);  // std::map iterates in sorted key order
  }
  return out;
}

const ScenarioSpec& ScenarioRegistry::get(std::string_view name) const {
  const auto it = specs_.find(name);
  CSMABW_REQUIRE(it != specs_.end(),
                 "unknown scenario `" + std::string(name) + "`");
  return it->second;
}

ScenarioSpec ScenarioRegistry::resolve(std::string_view name_or_grammar)
    const {
  const auto it = specs_.find(name_or_grammar);
  return it != specs_.end() ? it->second
                            : ScenarioSpec::parse(name_or_grammar);
}

void ScenarioRegistry::register_builtins(ScenarioRegistry& registry) {
  // The paper's Fig 2 (one Poisson contender) and Fig 3 (adding FIFO
  // cross-traffic on the probing station's own queue).
  registry.add("paper_fig2", ScenarioSpec::parse(
                                 "phy=dot11b_short;"
                                 "contenders=1x poisson:rate=2M"));
  registry.add("paper_fig3",
               ScenarioSpec::parse("phy=dot11b_short;"
                                   "contenders=1x poisson:rate=2M;"
                                   "fifo=poisson:rate=1M"));
  // Heusse et al. 2003: one 2 Mb/s laggard drags an 11 Mb/s cell down
  // to roughly equal per-station shares.
  registry.add("rate_anomaly",
               ScenarioSpec::parse("phy=dot11b_short;"
                                   "contenders=2x saturated + "
                                   "1x saturated@2M"));
  // Bursty non-saturated contention (Section 6.3 burstiness
  // sensitivity): same mean load as paper_fig2's contender, delivered
  // in 50 ms bursts at 3.3x the mean rate.
  registry.add("bursty",
               ScenarioSpec::parse(
                   "phy=dot11b_short;"
                   "contenders=1x onoff:rate=2M,duty=0.3,burst=50ms"));
  // Heterogeneous PHY rates without saturation: one contender at the
  // cell rate, one fallen back to 2 Mb/s.
  registry.add("hetero_rates",
               ScenarioSpec::parse("phy=dot11b_short;"
                                   "contenders=1x poisson:rate=2M + "
                                   "1x poisson:rate=2M@2M"));
}

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry;
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

// ----------------------------------------------------------- ScenarioCell

namespace {

/// Parses (and thereby validates) every contender's traffic spec.
std::vector<TrafficModelPtr> parse_contender_models(
    const ScenarioConfig& cfg) {
  const auto& registry = traffic::TrafficModelRegistry::global();
  std::vector<TrafficModelPtr> models;
  models.reserve(cfg.contenders.size());
  for (const StationSpec& spec : cfg.contenders) {
    CSMABW_REQUIRE(spec.size_bytes > 0, "packet size must be positive");
    models.push_back(registry.create(spec.traffic));
  }
  return models;
}

TrafficModelPtr parse_fifo_model(const ScenarioConfig& cfg) {
  if (!cfg.fifo_cross.has_value()) {
    return nullptr;
  }
  CSMABW_REQUIRE(cfg.fifo_cross->size_bytes > 0,
                 "packet size must be positive");
  CSMABW_REQUIRE(!cfg.fifo_cross->data_rate_bps.has_value(),
                 "fifo cross-traffic rides the probe station; it cannot "
                 "override the PHY rate");
  return traffic::TrafficModelRegistry::global().create(
      cfg.fifo_cross->traffic);
}

}  // namespace

topo::TopologyPtr build_topology(const ScenarioConfig& cfg) {
  if (cfg.topology == topo::kDefaultTopology) {
    return nullptr;
  }
  return std::make_shared<const topo::Topology>(
      topo::TopologyRegistry::global().build(
          cfg.topology, 1 + static_cast<int>(cfg.contenders.size())));
}

ScenarioCell::ScenarioCell(const ScenarioConfig& cfg,
                           std::uint64_t repetition)
    : ScenarioCell(cfg, repetition, parse_contender_models(cfg),
                   parse_fifo_model(cfg)) {}

ScenarioCell::ScenarioCell(
    const ScenarioConfig& cfg, std::uint64_t repetition,
    const std::vector<TrafficModelPtr>& contender_models,
    const TrafficModelPtr& fifo_model)
    : ScenarioCell(cfg, repetition, contender_models, fifo_model,
                   build_topology(cfg)) {}

ScenarioCell::ScenarioCell(
    const ScenarioConfig& cfg, std::uint64_t repetition,
    const std::vector<TrafficModelPtr>& contender_models,
    const TrafficModelPtr& fifo_model, const topo::TopologyPtr& topology)
    : net_(cfg.phy, stats::Rng(cfg.seed).fork(repetition).seed(), topology) {
  CSMABW_REQUIRE(contender_models.size() == cfg.contenders.size() &&
                     fifo_model.operator bool() ==
                         cfg.fifo_cross.has_value(),
                 "prebuilt traffic models do not match the scenario");
  CSMABW_REQUIRE(topology == nullptr ||
                     topology->num_nodes() ==
                         1 + static_cast<int>(cfg.contenders.size()),
                 "prebuilt topology does not match the station count");
  mac::DcfStation& probe = net_.add_station();
  dispatchers_.push_back(std::make_unique<traffic::FlowDispatcher>(probe));
  for (std::size_t i = 0; i < cfg.contenders.size(); ++i) {
    const StationSpec& spec = cfg.contenders[i];
    mac::DcfStation& st = net_.add_station();
    if (spec.data_rate_bps.has_value()) {
      st.set_data_rate_bps(*spec.data_rate_bps);
    }
    dispatchers_.push_back(std::make_unique<traffic::FlowDispatcher>(st));
    auto src = contender_models[i]->instantiate(
        {net_.simulator(), st, *dispatchers_.back(), static_cast<int>(i),
         spec.size_bytes, net_.rng("cross-" + std::to_string(i))});
    src->start(TimeNs::zero());
    sources_.push_back(std::move(src));
  }
  if (cfg.fifo_cross.has_value()) {
    auto src = fifo_model->instantiate(
        {net_.simulator(), probe, *dispatchers_.front(), kFifoCrossFlow,
         cfg.fifo_cross->size_bytes, net_.rng("fifo-cross")});
    src->start(TimeNs::zero());
    sources_.push_back(std::move(src));
  }
}

// --------------------------------------------------------------- results

std::vector<double> TrainRun::access_delays_s() const {
  CSMABW_REQUIRE(!any_dropped, "train suffered drops");
  std::vector<double> out;
  out.reserve(packets.size());
  for (const auto& p : packets) {
    out.push_back(p.access_delay_s());
  }
  return out;
}

double TrainRun::output_gap_s() const {
  CSMABW_REQUIRE(!any_dropped, "train suffered drops");
  CSMABW_REQUIRE(packets.size() >= 2, "need >= 2 packets");
  const auto n = packets.size();
  return (packets[n - 1].depart_time - packets[0].depart_time).to_seconds() /
         static_cast<double>(n - 1);
}

double TrainSequenceResult::mean_gap_s() const {
  CSMABW_REQUIRE(!gaps_s.empty(), "no complete trains");
  double total = 0.0;
  for (double g : gaps_s) {
    total += g;
  }
  return total / static_cast<double>(gaps_s.size());
}

// -------------------------------------------------------------- Scenario

Scenario::Scenario(ScenarioConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.phy.validate();
  CSMABW_REQUIRE(cfg_.warmup >= TimeNs::zero(), "warmup must be >= 0");
  // Eager validation doubles as the parse: a bad traffic spec fails
  // here, not mid-campaign, and every repetition reuses these models.
  contender_models_ = parse_contender_models(cfg_);
  fifo_model_ = parse_fifo_model(cfg_);
  // Same for the topology: a bad spec fails here, and every
  // repetition's medium reads this one graph.
  topology_ = build_topology(cfg_);
}

TrainRun Scenario::run_train(const traffic::TrainSpec& spec,
                             std::uint64_t repetition,
                             bool sample_contender_queue,
                             trace::TraceSink* trace,
                             obs::Registry* metrics) const {
  CSMABW_REQUIRE(!sample_contender_queue || !cfg_.contenders.empty(),
                 "queue sampling needs at least one contender");
  ScenarioCell cell(cfg_, repetition, contender_models_, fifo_model_,
                    topology_);
  cell.set_trace(trace);
  cell.set_metrics(metrics);
  auto& sim = cell.simulator();

  stats::Rng phase_rng = cell.net().rng("probe-phase");
  const TimeNs start =
      cfg_.warmup + TimeNs::from_seconds(phase_rng.exponential(
                        cfg_.probe_phase_mean.to_seconds()));

  traffic::ProbeTrain train(sim, cell.probe_station(), spec, kProbeFlow);
  cell.dispatcher(0).on_flow(kProbeFlow, [&train](const mac::Packet& p) {
    train.on_packet_done(p);
  });

  TrainRun run;
  if (sample_contender_queue) {
    run.contender_queue_at_arrival.resize(static_cast<std::size_t>(spec.n));
    auto& contender = cell.contender_station(0);
    for (int k = 0; k < spec.n; ++k) {
      // One nanosecond after the arrival: samples the contending queue
      // state the probe packet actually faces.
      sim.schedule_at(start + spec.gap * k + TimeNs::ns(1),
                      [&run, &contender, k] {
                        run.contender_queue_at_arrival[static_cast<std::size_t>(
                            k)] = static_cast<double>(contender.queue_length());
                      });
    }
  }

  train.start(start);
  const bool finished =
      sim.run_while_pending([&train] { return train.complete(); });
  CSMABW_REQUIRE(finished, "simulation drained before the train completed");

  run.packets = train.records();
  run.any_dropped = train.any_dropped();
  const sim::Simulator::Cost cost = sim.cost();
  run.sim_events = cost.events_processed;
  run.sim_allocations = cost.allocations;
  run.sim_slot_capacity = cost.slot_capacity;
  return run;
}

SteadyStateResult Scenario::run_steady_state(BitRate probe_rate,
                                             int probe_bytes,
                                             TimeNs duration,
                                             TimeNs measure_from,
                                             trace::TraceSink* trace) const {
  CSMABW_REQUIRE(measure_from >= cfg_.warmup,
                 "measurement must start after warm-up");
  CSMABW_REQUIRE(duration > measure_from, "duration must exceed window start");
  ScenarioCell cell(cfg_, /*repetition=*/0, contender_models_,
                    fifo_model_, topology_);
  cell.set_trace(trace);
  auto& sim = cell.simulator();

  traffic::CbrSource probe(sim, cell.probe_station(), kProbeFlow,
                           probe_bytes, probe_rate.gap_for(probe_bytes));
  probe.start(cfg_.warmup);

  traffic::FlowMeter probe_meter(measure_from, duration);
  traffic::FlowMeter fifo_meter(measure_from, duration);
  // on_any with a flow filter, NOT on_flow: on_flow would replace the
  // handler a reactive fifo source (saturated) registered for its flow
  // in the cell builder, silently starving the flow.
  cell.dispatcher(0).on_any([&probe_meter, &fifo_meter](const mac::Packet& p) {
    if (p.flow == kProbeFlow) {
      probe_meter.on_packet(p);
    } else if (p.flow == kFifoCrossFlow) {
      fifo_meter.on_packet(p);
    }
  });

  std::vector<std::unique_ptr<traffic::FlowMeter>> contender_meters;
  for (std::size_t i = 0; i < cfg_.contenders.size(); ++i) {
    contender_meters.push_back(
        std::make_unique<traffic::FlowMeter>(measure_from, duration));
    traffic::FlowMeter* meter = contender_meters.back().get();
    cell.dispatcher(static_cast<int>(i) + 1)
        .on_any([meter](const mac::Packet& p) { meter->on_packet(p); });
  }

  sim.run_until(duration);

  SteadyStateResult r;
  r.probe = probe_meter.rate();
  r.fifo_cross = cfg_.fifo_cross.has_value() ? fifo_meter.rate()
                                             : BitRate::bps(0.0);
  double total = 0.0;
  for (auto& m : contender_meters) {
    r.per_contender.push_back(m->rate());
    total += m->rate().to_bps();
  }
  r.contenders_total = BitRate::bps(total);
  return r;
}

ContentionResult Scenario::run_contention(TimeNs duration,
                                          TimeNs measure_from,
                                          std::uint64_t repetition,
                                          trace::TraceSink* trace) const {
  CSMABW_REQUIRE(measure_from >= TimeNs::zero(),
                 "measurement start must be >= 0");
  CSMABW_REQUIRE(duration > measure_from, "duration must exceed window start");
  ScenarioCell cell(cfg_, repetition, contender_models_, fifo_model_,
                    topology_);
  cell.set_trace(trace);

  std::vector<std::unique_ptr<traffic::FlowMeter>> meters;
  for (std::size_t i = 0; i < cfg_.contenders.size(); ++i) {
    meters.push_back(
        std::make_unique<traffic::FlowMeter>(measure_from, duration));
    traffic::FlowMeter* meter = meters.back().get();
    cell.dispatcher(static_cast<int>(i) + 1)
        .on_any([meter](const mac::Packet& p) { meter->on_packet(p); });
  }

  cell.simulator().run_until(duration);

  ContentionResult r;
  double total = 0.0;
  for (auto& m : meters) {
    r.per_contender.push_back(m->rate());
    total += m->rate().to_bps();
  }
  r.aggregate = BitRate::bps(total);
  r.medium = cell.net().medium().stats();
  return r;
}

TrainSequenceResult Scenario::run_train_sequence(
    const traffic::TrainSpec& spec, int trains, TimeNs mean_spacing,
    std::uint64_t repetition) const {
  CSMABW_REQUIRE(trains >= 1, "need at least one train");
  ScenarioCell cell(cfg_, repetition, contender_models_, fifo_model_,
                    topology_);
  auto& sim = cell.simulator();
  stats::Rng spacing_rng = cell.net().rng("train-spacing");

  TrainSequenceResult result;
  TimeNs start = cfg_.warmup + TimeNs::from_seconds(spacing_rng.exponential(
                                   cfg_.probe_phase_mean.to_seconds()));
  for (int t = 0; t < trains; ++t) {
    traffic::ProbeTrain train(sim, cell.probe_station(), spec, kProbeFlow);
    cell.dispatcher(0).on_flow(kProbeFlow, [&train](const mac::Packet& p) {
      train.on_packet_done(p);
    });
    train.start(start);
    const bool finished =
        sim.run_while_pending([&train] { return train.complete(); });
    CSMABW_REQUIRE(finished, "simulation drained before the train completed");
    if (train.any_dropped()) {
      ++result.dropped_trains;
    } else {
      const auto departures = train.departures();
      result.gaps_s.push_back(
          (departures.back() - departures.front()).to_seconds() /
          static_cast<double>(departures.size() - 1));
    }
    start = sim.now() + TimeNs::from_seconds(spacing_rng.exponential(
                            mean_spacing.to_seconds()));
  }
  return result;
}

TrainResult SimTransport::send_train(const traffic::TrainSpec& spec) {
  const TrainRun run = scenario_.run_train(spec, next_rep_++);
  TrainResult out;
  out.packets.reserve(run.packets.size());
  for (const auto& p : run.packets) {
    ProbeRecord rec;
    rec.seq = p.seq;
    rec.send_s = p.enqueue_time.to_seconds();
    rec.recv_s = p.depart_time.to_seconds();
    rec.lost = p.dropped;
    out.packets.push_back(rec);
  }
  return out;
}

}  // namespace csmabw::core
