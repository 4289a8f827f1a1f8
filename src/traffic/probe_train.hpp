#pragma once

#include <vector>

#include "mac/packet.hpp"
#include "mac/station.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace csmabw::traffic {

/// Specification of one periodic probing sequence (Section 5.1.2): `n`
/// packets of `size_bytes`, arriving at the transmission queue every
/// `gap` (the input gap g_I).
struct TrainSpec {
  int n = 10;
  int size_bytes = 1500;
  TimeNs gap;

  [[nodiscard]] double input_rate_bps() const {
    return size_bytes * 8.0 / gap.to_seconds();
  }
};

/// Injects one probe train into a station and collects the per-packet
/// records (arrival a_i, head-of-queue, departure d_i) as they complete.
///
/// The train is complete when all n packets have either been delivered
/// or dropped.  Records are in sequence order.
class ProbeTrain {
 public:
  /// `flow` must be unique among concurrently active flows on the
  /// station (the train's packets are routed to it by flow id).
  ProbeTrain(sim::Simulator& sim, mac::DcfStation& station, TrainSpec spec,
             int flow);

  ProbeTrain(const ProbeTrain&) = delete;
  ProbeTrain& operator=(const ProbeTrain&) = delete;

  /// Schedules the n arrivals at `first_arrival + k * gap`.
  void start(TimeNs first_arrival);

  /// Completion hook: the owner registers it on the station for this
  /// train's flow (`station.on_flow(flow, ...)`).
  void on_packet_done(const mac::Packet& p);

  [[nodiscard]] const TrainSpec& spec() const { return spec_; }
  [[nodiscard]] int flow() const { return flow_; }
  [[nodiscard]] bool complete() const {
    return done_ == static_cast<std::size_t>(spec_.n);
  }
  /// Per-packet records in sequence order; valid once complete().
  [[nodiscard]] const std::vector<mac::Packet>& records() const {
    return records_;
  }
  /// Access delays mu_i in seconds, sequence order (dropped packets get
  /// NaN).  Valid once complete().
  [[nodiscard]] std::vector<double> access_delays_s() const;
  /// Departure times d_i; valid once complete() and only if no drops.
  [[nodiscard]] std::vector<TimeNs> departures() const;
  [[nodiscard]] bool any_dropped() const { return drops_ > 0; }

 private:
  sim::Simulator& sim_;
  mac::DcfStation& station_;
  TrainSpec spec_;
  int flow_;
  std::vector<mac::Packet> records_;
  std::size_t done_ = 0;
  std::size_t drops_ = 0;
};

}  // namespace csmabw::traffic
