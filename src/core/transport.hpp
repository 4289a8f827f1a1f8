#pragma once

#include <vector>

#include "traffic/probe_train.hpp"

namespace csmabw::core {

/// One probe packet as seen by a measurement tool: network-layer send
/// and receive timestamps (seconds on a common clock).
struct ProbeRecord {
  int seq = 0;
  double send_s = 0.0;
  double recv_s = 0.0;
  bool lost = false;
};

/// Result of sending one probe train through a transport.
struct TrainResult {
  std::vector<ProbeRecord> packets;  // sequence order

  [[nodiscard]] bool complete() const;
  /// Output gap g_O = (d_n - d_1)/(n-1) (Eq. 16); requires complete().
  [[nodiscard]] double output_gap_s() const;
  /// Receive timestamps in sequence order; requires complete().
  [[nodiscard]] std::vector<double> receive_times_s() const;
};

/// A link a bandwidth measurement tool can probe.
///
/// This is the seam between the paper's measurement methodology and the
/// link under test: the same tool code runs over the DCF simulator
/// (`SimTransport`), the trace-driven queueing model
/// (`QueueingTransport`) or real UDP sockets (`net::UdpLoopbackTransport`
/// — the testbed substitute).
class ProbeTransport {
 public:
  virtual ~ProbeTransport() = default;

  /// Sends one train paced at spec.gap and returns the per-packet
  /// timestamps.  Implementations may block (sockets) or simulate.
  virtual TrainResult send_train(const traffic::TrainSpec& spec) = 0;
};

}  // namespace csmabw::core
