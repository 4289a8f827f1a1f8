#pragma once

#include <functional>

#include "core/transport.hpp"
#include "queueing/fifo_trace.hpp"
#include "stats/rng.hpp"

namespace csmabw::core {

/// ProbeTransport backed by the trace-driven FIFO queueing model — the
/// analogue of the paper's Matlab simulator used as a measurement target.
///
/// Probe packets arrive periodically; their service times (access
/// delays) are drawn from a user-supplied generator, and Poisson FIFO
/// cross-traffic jobs can share the queue.  The transport lets the same
/// tool code run against a purely queueing-theoretic link, which is
/// how the paper separates queueing effects from MAC effects.
class QueueingTransport : public ProbeTransport {
 public:
  /// `service_of(index)` returns the service time (seconds) of the
  /// index-th probe packet of a train — e.g. a constant, or a draw from
  /// a recorded access-delay distribution.
  using ServiceModel = std::function<double(int index, stats::Rng& rng)>;

  struct Config {
    ServiceModel probe_service;
    /// FIFO cross-traffic: Poisson arrivals at `cross_rate_jobs_per_s`,
    /// each with service `cross_service_s` (0 rate disables).
    double cross_rate_jobs_per_s = 0.0;
    double cross_service_s = 0.0;
    /// Cross-traffic history generated before the train (seconds).
    double warmup_s = 0.5;
    std::uint64_t seed = 1;
  };

  explicit QueueingTransport(Config cfg);

  TrainResult send_train(const traffic::TrainSpec& spec) override;

 private:
  Config cfg_;
  std::uint64_t next_rep_ = 0;
};

}  // namespace csmabw::core
