#pragma once

#include <memory>
#include <vector>

#include "mac/medium.hpp"
#include "mac/station.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"
#include "topo/topology.hpp"

namespace csmabw::mac {

/// Owns a simulator, a medium and the stations of one WLAN cell — the
/// experimental scenario of the paper's Fig 2 in one object.
///
/// Station 0 is conventionally the probing/measurement station; further
/// stations carry contending cross-traffic.  Traffic sources (see
/// `traffic/`) attach to stations by reference.
class WlanNetwork {
 public:
  /// A cell over conflict graph `topology`, shared read-only with the
  /// medium: exactly its node count of stations must be added before
  /// the simulation starts.  Null is one collision domain (a complete
  /// graph) over any number of stations.
  WlanNetwork(const PhyParams& phy, std::uint64_t seed,
              topo::TopologyPtr topology = nullptr);

  WlanNetwork(const WlanNetwork&) = delete;
  WlanNetwork& operator=(const WlanNetwork&) = delete;

  /// Adds a station; returns a stable reference (stations are never
  /// removed).
  DcfStation& add_station();

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] Medium& medium() { return medium_; }
  [[nodiscard]] const PhyParams& phy() const { return medium_.phy(); }
  [[nodiscard]] DcfStation& station(int i) { return *stations_.at(i); }
  [[nodiscard]] int num_stations() const {
    return static_cast<int>(stations_.size());
  }
  /// Derives a reproducible named random stream from the network seed
  /// (for traffic sources etc.).
  [[nodiscard]] stats::Rng rng(std::string_view name) const {
    return root_rng_.fork(name);
  }

  /// Installs (or, with nullptr, removes) an event tap on the whole
  /// cell: the sink lives on the simulator, so the medium and every
  /// station — current and future ones — emit to it.  Observational
  /// only; a traced run is bit-identical to an untraced one.
  void set_trace(trace::TraceSink* sink) { sim_.set_trace(sink); }

  /// Binds the medium's hot-path counters to a metrics registry (or
  /// unbinds them with nullptr).  Observational only, like set_trace:
  /// counters never influence the simulation.
  void set_metrics(obs::Registry* reg) { medium_.bind_metrics(reg); }

 private:
  sim::Simulator sim_;
  stats::Rng root_rng_;
  Medium medium_;
  std::vector<std::unique_ptr<DcfStation>> stations_;
};

}  // namespace csmabw::mac
