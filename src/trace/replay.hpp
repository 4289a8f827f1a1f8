#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "trace/event.hpp"
#include "trace/writer.hpp"  // TraceMeta

namespace csmabw::trace {

/// One reconstructed packet lifecycle plus the station that carried it.
struct ReplayPacket {
  int station = 0;
  mac::Packet packet;
};

/// Streaming reconstruction of packet lifecycles from an event trace.
///
/// Mirrors the DCF station's FIFO bookkeeping exactly: a packet's
/// head-of-queue instant is its enqueue time when the queue was empty,
/// else max(previous head packet's departure, its own enqueue time) —
/// the same recursion `mac::DcfStation` applies live, so the
/// reconstructed records are bit-identical to the live run's.  Requires
/// a complete trace (every enqueue/success/drop present and in
/// simulation order); kind-filtered traces cannot be reconstructed.
class PacketReconstructor {
 public:
  void on_event(const TraceEvent& event);

  /// Delivered and dropped packets in completion (event) order.
  [[nodiscard]] const std::vector<ReplayPacket>& packets() const {
    return packets_;
  }
  /// Packets enqueued but not yet delivered or dropped.
  [[nodiscard]] std::size_t pending() const;
  /// Events seen per kind (dense kind_index order).
  [[nodiscard]] const std::array<std::uint64_t, kEventKindCount>& counts()
      const {
    return counts_;
  }

 private:
  std::map<int, std::deque<mac::Packet>> queues_;  // station -> FIFO
  std::vector<ReplayPacket> packets_;
  std::array<std::uint64_t, kEventKindCount> counts_{};
};

/// Rebuilds flow `flow`'s probe train from reconstructed packets as a
/// core::TrainRun (packets in sequence order) — the offline twin of
/// Scenario::run_train's result, feeding the same access-delay and
/// output-gap machinery.  Throws when the flow has a sequence gap.
[[nodiscard]] core::TrainRun replay_train(
    const std::vector<ReplayPacket>& packets, int flow);

/// Convenience: map + reconstruct + extract in one call.
[[nodiscard]] core::TrainRun replay_train_file(const std::string& path,
                                               int flow = core::kProbeFlow);

/// A discovered trace file with its header metadata.
struct TraceFile {
  std::string path;
  TraceMeta meta;
};

/// Lists every `.cctrace` under `dir` (non-recursive), sorted by
/// (meta.cell, meta.repetition, path) — the replay order of a recorded
/// campaign.  Throws std::runtime_error when `dir` does not exist.
[[nodiscard]] std::vector<TraceFile> list_traces(const std::string& dir);

}  // namespace csmabw::trace
