#pragma once

#include <cstdint>
#include <functional>

#include "mac/packet.hpp"
#include "mac/station.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"
#include "util/units.hpp"

namespace csmabw::traffic {

/// Common base for packet generators bound to one station and one flow id.
///
/// Sources enqueue network-layer packets into the station's FIFO queue;
/// the MAC takes it from there.  `start()` may be called once; `stop()`
/// halts future arrivals (packets already queued still drain).
class Source {
 public:
  Source(sim::Simulator& sim, mac::DcfStation& station, int flow,
         int size_bytes);
  virtual ~Source() = default;

  Source(const Source&) = delete;
  Source& operator=(const Source&) = delete;

  virtual void start(TimeNs at) = 0;
  void stop() { running_ = false; }

  [[nodiscard]] int flow() const { return flow_; }
  [[nodiscard]] std::uint64_t generated() const { return generated_; }

 protected:
  void emit(int seq);

  sim::Simulator& sim_;
  mac::DcfStation& station_;
  int flow_;
  int size_bytes_;
  bool running_ = false;
  std::uint64_t generated_ = 0;
};

/// Poisson packet arrivals at a given network-layer rate (the paper's
/// cross-traffic model, Section 2.1).
class PoissonSource : public Source {
 public:
  PoissonSource(sim::Simulator& sim, mac::DcfStation& station, int flow,
                int size_bytes, BitRate rate, stats::Rng rng);

  void start(TimeNs at) override;

 private:
  void schedule_next();

  double mean_gap_s_;
  stats::Rng rng_;
};

/// Constant-bit-rate arrivals: packets every `gap`, optionally at most
/// `max_packets` (0 = unbounded).
class CbrSource : public Source {
 public:
  CbrSource(sim::Simulator& sim, mac::DcfStation& station, int flow,
            int size_bytes, TimeNs gap, std::uint64_t max_packets = 0);

  void start(TimeNs at) override;

 private:
  void schedule_next(TimeNs at);
  void on_timer();

  TimeNs gap_;
  std::uint64_t max_packets_;
};

/// Always-backlogged source: keeps `backlog` packets in the station's
/// queue by topping it up on every delivery or drop of its flow, so the
/// station contends permanently — the saturation workload of Bianchi's
/// analysis and of the calibration/rate-anomaly experiments.
///
/// The source registers its refill on the station for its flow
/// (DcfStation::on_flow), beside any probe trains and meters there.
/// The station keeps that handler, so the source must outlive the
/// station's run.
class SaturatedSource : public Source {
 public:
  SaturatedSource(sim::Simulator& sim, mac::DcfStation& station, int flow,
                  int size_bytes, int backlog = 2);

  void start(TimeNs at) override;

 private:
  void fill();

  int backlog_;
};

/// Markov on-off bursty source: exponential on/off sojourns; during "on"
/// periods packets arrive at fixed gaps.  Used by the burstiness
/// sensitivity studies (Section 6.3 discusses cross-traffic burstiness).
class OnOffSource : public Source {
 public:
  OnOffSource(sim::Simulator& sim, mac::DcfStation& station, int flow,
              int size_bytes, TimeNs on_gap, double mean_on_s,
              double mean_off_s, stats::Rng rng);

  void start(TimeNs at) override;

 private:
  void schedule_next();

  TimeNs on_gap_;
  double mean_on_s_;
  double mean_off_s_;
  stats::Rng rng_;
  bool on_ = false;
  TimeNs phase_end_;
};

}  // namespace csmabw::traffic
