#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "mac/medium.hpp"
#include "mac/packet.hpp"
#include "mac/phy.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"
#include "trace/event.hpp"

namespace csmabw::mac {

/// Per-station counters.
struct StationStats {
  std::uint64_t enqueued = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t attempts = 0;  ///< transmission attempts (incl. retries)
  std::int64_t delivered_payload_bits = 0;
};

/// An IEEE 802.11 DCF transmitter with an infinite FIFO queue.
///
/// Implements the paper's model of Fig 3: packets from possibly several
/// flows share one FIFO transmission queue; the head packet contends for
/// the channel under CSMA/CA (binary exponential backoff, DIFS/EIFS
/// deference, post-backoff, retransmission on collision).  Every packet
/// is timestamped at enqueue, head-of-queue and departure so the access
/// delay process {mu_i} and the queueing process {Z_i} can be observed
/// directly.
class DcfStation {
 public:
  /// Called on successful delivery, after the packet's timestamps are
  /// final.  Invoked at the end of the ACK exchange.
  using DeliveryCallback = std::function<void(const Packet&)>;
  /// Called when a packet exhausts its retry limit.
  using DropCallback = std::function<void(const Packet&)>;

  DcfStation(sim::Simulator& sim, Medium& medium, int id, stats::Rng rng);

  DcfStation(const DcfStation&) = delete;
  DcfStation& operator=(const DcfStation&) = delete;

  /// Enqueues a packet at the current simulation time.  `flow`, `seq` and
  /// `size_bytes` must be set by the caller; timestamps and id are
  /// assigned here.
  void enqueue(Packet p);

  void set_delivery_callback(DeliveryCallback cb);
  void set_drop_callback(DropCallback cb);

  [[nodiscard]] int id() const { return id_; }
  /// Packets in the queue, including the one in service.
  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] const StationStats& stats() const { return stats_; }
  /// Current contention window (diagnostics).
  [[nodiscard]] int contention_window() const { return cw_; }

  /// Overrides this station's PHY data rate (e.g. a far station that
  /// fell back to 2 Mb/s).  Control frames stay at the basic rate.  The
  /// 802.11 "rate anomaly" bench builds on this.
  void set_data_rate_bps(double rate_bps);
  [[nodiscard]] double data_rate_bps() const { return data_rate_bps_; }

  // --- interface used by Medium (not for application code) ---
  [[nodiscard]] bool in_contention() const {
    return state_ == State::kContending;
  }
  /// This station's node id in the medium (assigned at registration).
  [[nodiscard]] int medium_slot() const { return medium_slot_; }
  [[nodiscard]] bool is_transmitting() const {
    return state_ == State::kTransmitting;
  }
  [[nodiscard]] TimeNs contend_from() const { return contend_from_; }
  [[nodiscard]] TimeNs defer() const { return defer_; }
  [[nodiscard]] int backoff_slots() const { return backoff_slots_; }
  [[nodiscard]] bool has_frame() const { return !queue_.empty(); }
  [[nodiscard]] int head_frame_bytes() const;
  /// Airtime of the head data frame at this station's PHY rate.
  [[nodiscard]] TimeNs head_frame_airtime() const;

  /// Medium granted the channel: transition to Transmitting.
  void tx_started(TimeNs now);
  /// Post-backoff expired with an empty queue: leave contention.
  void finish_post_backoff();
  /// Another station seized the medium at `busy_start` while this one was
  /// counting down: consume the slots observed so far and, if this
  /// station was waiting for immediate access, fall back to a random
  /// backoff.
  void medium_seized(TimeNs busy_start, TimeNs idle_start);
  /// Successful transmission: data fully sent at `data_end`, ACK received
  /// at `ack_end`.
  void tx_succeeded(TimeNs data_end, TimeNs ack_end);
  /// Collision: the expected CTS/ACK never arrived; the station may
  /// re-enter contention from `retry_from` (its own frame end plus the
  /// applicable timeout, computed by the medium).
  void tx_collided(TimeNs retry_from);
  /// Occupation the station did not participate in ended; `collision`
  /// selects EIFS vs DIFS deference for the next idle period.
  void occupation_observed(bool collision);

 private:
  enum class State { kIdle, kContending, kTransmitting };

  void join_contention(TimeNs from, bool allow_immediate);
  void drop_head(TimeNs when);
  /// Emits `kind` to the simulator's event tap (Simulator::trace());
  /// no-op (one branch) when none is installed.  Tracing is purely
  /// observational: it never consumes randomness or perturbs timing,
  /// so a traced run is bit-identical to an untraced one.  `p` supplies
  /// packet/flow/seq when non-null.
  void emit(trace::EventKind kind, const Packet* p, std::int32_t value,
            TimeNs aux);

  sim::Simulator& sim_;
  Medium& medium_;
  int id_;
  int medium_slot_ = -1;
  stats::Rng rng_;
  const PhyParams& phy_;
  double data_rate_bps_;

  std::deque<Packet> queue_;
  State state_ = State::kIdle;
  int cw_;
  int retries_ = 0;
  int backoff_slots_ = 0;
  TimeNs contend_from_;
  TimeNs defer_;
  /// Waiting to transmit after plain DIFS with zero backoff (immediate
  /// access); cleared by drawing a random backoff if the medium is seized
  /// first.
  bool awaiting_immediate_ = false;

  std::uint64_t next_packet_id_ = 1;
  StationStats stats_;
  DeliveryCallback delivery_cb_;
  DropCallback drop_cb_;
};

}  // namespace csmabw::mac
