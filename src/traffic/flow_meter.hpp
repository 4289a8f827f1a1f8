#pragma once

#include <cstdint>

#include "mac/packet.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace csmabw::traffic {

/// Measures the delivered throughput of one flow inside a time window.
///
/// Steady-state rate-response experiments (Figs 1, 4) run long flows and
/// measure throughput over a window that excludes warm-up; the meter
/// counts only packets whose departure falls inside [from, to).
class FlowMeter {
 public:
  FlowMeter(TimeNs from, TimeNs to);

  /// Feed every finished packet of the flow (register on the station
  /// via DcfStation::on_flow); dropped packets are not counted.
  void on_packet(const mac::Packet& p);

  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  [[nodiscard]] std::int64_t payload_bits() const { return bits_; }
  [[nodiscard]] BitRate rate() const;
  [[nodiscard]] TimeNs window() const { return to_ - from_; }

 private:
  TimeNs from_;
  TimeNs to_;
  std::uint64_t packets_ = 0;
  std::int64_t bits_ = 0;
};

}  // namespace csmabw::traffic
