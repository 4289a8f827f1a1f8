#pragma once

#include <cstdint>
#include <vector>

#include "mac/phy.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_index.hpp"
#include "topo/topology.hpp"
#include "util/time.hpp"

namespace csmabw::mac {

class DcfStation;

/// Statistics of the shared wireless medium.  Exchanges are counted
/// when they end, so a run that stops mid-exchange charges neither its
/// success nor its airtime.
struct MediumStats {
  std::uint64_t successes = 0;
  std::uint64_t collisions = 0;        ///< collision events (>= 2 frames)
  std::uint64_t collided_frames = 0;   ///< frames involved in collisions
  /// Time during which at least one frame was on the air (the union of
  /// every transmission's airtime, not their sum).
  TimeNs busy_time;
};

/// CSMA/CA medium over a carrier-sense/interference conflict graph
/// (topo::Topology).
///
/// Station i's channel is the set of its sensing neighbors: i defers,
/// freezes its backoff and applies EIFS against their transmissions
/// only.  A transmission of i is corrupted iff the airtime of some j in
/// interfere[i] overlaps i's *first* frame (the data frame, or the RTS
/// above the RTS threshold); once the first frame survives, the
/// exchange completes.  Hidden terminals (interferers outside the
/// sensing set collide on any temporal overlap) and exposed terminals
/// (non-neighbors reuse the channel concurrently) fall out of the two
/// edge sets.  On a complete graph this is the paper's single collision
/// domain: no hidden terminals, no capture, no channel errors — the NS2
/// setup.
///
/// The medium owns the contention clock.  A contending station s fires
/// when its DIFS/EIFS deference plus backoff countdown completes:
///
///   fire(s) = max(idle_since(s), s.contend_from) + s.defer + slot * s.backoff
///
/// where idle_since(s) is the start of s's current idle channel,
/// `contend_from` the earliest instant s may observe the channel (e.g.
/// the end of its ACK timeout after a collision) and `defer` is DIFS or
/// EIFS.  Stations firing at the same instant collide when they
/// interfere (times are integer nanoseconds, so coincidence is exact).
///
/// The collision rules, the same on every graph:
///  - A transmitter's outcome (success, or retry behind its CTS/ACK
///    timeout) sets its own deference: DIFS.
///  - A bystander whose channel clears defers EIFS if a corrupted frame
///    ended during the busy period it heard, DIFS otherwise.  A
///    transmitter whose own frame ended while its channel was still
///    busy is not a bystander when the channel clears — it missed the
///    preamble of the frame still on the air, so it started no
///    reception to fail.
///  - MediumStats::busy_time is the union of on-air time; successes and
///    busy time are charged when a transmission ends.
///
/// The neighbourhood bookkeeping is chosen at construction from the
/// topology:
///
///  - Complete graph (no topology, or one whose `is_clique()` holds):
///    one on-air state for the whole cell, a flat contender slab with a
///    cached minimum fire time (rescanned only when the minimum's owner
///    changes or the idle origin moves for everyone), and one end event
///    per occupation, at which every transmitter's outcome is delivered
///    in ascending station order before the bystanders'.  No
///    per-station counts, sorts or heaps.
///  - Any other graph: walks over the shared topology's own CSR rows
///    (never copied or re-checked), per-station
///    sensed-transmission counts and idle origins, and two addressable
///    min-heaps (sim::TimerIndex) of fire times and transmission ends
///    keyed (time, station).  Every per-event cost is O(degree log N):
///    a state transition touches the transitioning station's
///    neighborhood only.  Each transmission ends at its own frame
///    boundary.
///
/// Both keep the event-sequence discipline: the medium's clock is two
/// simulator timers, the pending fire and the pending transmission end,
/// armed or disarmed at fixed call sites.  Every arm takes a fresh
/// sequence number from the simulator's one counter (as cancelling a
/// one-shot event and scheduling a new one did), so event numbering —
/// and therefore every trace and CSV byte — is a pure function of the
/// inputs.  A medium event touches neither the event heap nor its slab,
/// and the hot path is allocation-free once every station has
/// registered.
class Medium {
 public:
  /// Conflict graph `topology` (null: complete graph over any number of
  /// stations); at most its node count of stations may register, and
  /// exactly that many before the simulation starts.
  Medium(sim::Simulator& sim, const PhyParams& phy,
         topo::TopologyPtr topology = nullptr);

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Registers a station; returns its node id (stations pass it back via
  /// DcfStation::medium_slot()).  The station must outlive the medium.
  int register_station(DcfStation* s);

  /// `s`'s contention state changed; refresh its fire time and the
  /// pending fire event.
  void update_contention(DcfStation& s);

  /// Whether `s` currently senses the channel busy (an ongoing
  /// transmission of a sensing neighbor).
  [[nodiscard]] bool sensed_busy(const DcfStation& s) const;

  /// Binds the `topo.medium.*` hot-path counters (updates, neighborhood
  /// sweeps, fire re-arms) to `reg`, or unbinds them with nullptr.
  /// They count the sparse bookkeeping's work: a complete graph has no
  /// neighborhoods and leaves them at 0.  Observational only; call
  /// before the simulation starts.
  void bind_metrics(obs::Registry* reg);

  [[nodiscard]] const PhyParams& phy() const { return phy_; }
  [[nodiscard]] const MediumStats& stats() const { return stats_; }

 private:
  /// One transmission on the air.
  struct Tx {
    int station = -1;
    TimeNs start;
    TimeNs first_end;    ///< end of the first frame (data, or RTS)
    TimeNs data_end;     ///< end of the data exchange if it succeeds
    TimeNs success_end;  ///< end of the ACK exchange if it succeeds
    bool corrupted = false;
    bool rts = false;
  };

  /// Complete-graph contender cache entry.
  struct Contender {
    TimeNs fire;          ///< valid only while `active`
    bool active = false;  ///< station is in contention
  };

  /// tx_state_ slab conventions (sparse graphs).
  static constexpr std::int32_t kTxIdle = -1;     ///< not transmitting
  static constexpr std::int32_t kTxWinning = -2;  ///< firing this instant

  [[nodiscard]] static TimeNs tx_end(const Tx& t) {
    return t.corrupted ? t.first_end : t.success_end;
  }
  [[nodiscard]] TimeNs fire_time(const DcfStation& s, TimeNs idle_since) const;
  /// Recomputes node i's fire eligibility and its fire-cache entry.
  void refresh(int i);
  /// Complete graph: full rescan for the earliest live countdown.
  void rescan_min();
  /// Complete graph: recomputes every fire time (the idle origin moved
  /// for every station at once).
  void reschedule_all();
  /// Arms the fire timer at the earliest fire time, or disarms it when
  /// no countdown is live.  Each arm takes a fresh sequence number, so
  /// event numbering depends only on the call sites.
  void sync_pending_fire();
  /// Arms the end timer at the earliest transmission end, or disarms it
  /// when nothing is on the air.
  void sync_pending_end();

  void fire();
  /// Fills winners_/post_backoff_ with the nodes due now, ascending.
  void collect_due(TimeNs now);
  /// Freezes every contender whose channel the winners seize.
  void seize(TimeNs now);
  /// Puts the winners' first frames on the air.
  void launch(TimeNs now);
  /// Marks the transmissions that overlap an interferer.
  void detect_corruption(TimeNs now);
  void mark_corrupted(Tx& t);

  void advance();
  /// Moves the transmissions ending now into ended_txs_ (ascending
  /// station) and clears their airtime from the channel state.
  void release(TimeNs now);
  /// Bystander pass: DIFS or EIFS for every station whose channel just
  /// cleared.
  void observe_clear_channels();

  sim::Simulator& sim_;
  PhyParams phy_;
  MediumStats stats_;
  /// The conflict graph; null = complete graph, unbounded registration.
  topo::TopologyPtr topology_;
  /// Chosen once from the topology: complete-graph bookkeeping.
  bool complete_ = true;
  std::vector<DcfStation*> stations_;

  std::vector<Tx> txs_;  ///< transmissions on the air
  TimeNs busy_mark_;     ///< busy time is charged up to here
  sim::TimerId fire_timer_;  ///< runs fire() at the earliest fire time
  sim::TimerId end_timer_;   ///< runs advance() at the earliest tx end

  // Complete graph: the cell's idle origin and the contender cache.
  TimeNs idle_start_;
  std::vector<Contender> contenders_;
  int min_slot_ = -1;  ///< index of the cached earliest fire, -1 = none

  // Sparse graph: structure-of-arrays channel state, indexed by node.
  std::vector<std::int32_t> sensed_tx_;  ///< sensing neighbors on the air
  std::vector<TimeNs> node_idle_start_;  ///< last busy->idle transition
  std::vector<char> saw_corrupt_;  ///< corrupted neighbor tx this period
  std::vector<std::int32_t> tx_state_;  ///< txs_ index, or kTxIdle/kTxWinning
  /// Own transmission ended: its outcome set the deference, so the next
  /// clearing of its channel is not observed as a bystander.
  std::vector<char> own_outcome_;
  /// Nodes with a live countdown (in contention, channel idle, off air),
  /// keyed by fire time.
  sim::TimerIndex fire_idx_;
  /// Transmitting nodes, keyed by their transmission's end.
  sim::TimerIndex end_idx_;

  // Hot-path instrumentation (unbound by default: one branch each).
  obs::Counter m_updates_;  ///< topo.medium.updates
  obs::Counter m_sweeps_;   ///< topo.medium.neighborhood_sweeps
  obs::Counter m_rearms_;   ///< topo.medium.fire_rearms

  // Per-event scratch, sized at registration and reused.
  std::vector<int> winners_;
  std::vector<int> post_backoff_;
  std::vector<Tx> ended_txs_;
  std::vector<int> ended_;  ///< txs_ slab indices ending now (sparse)
  std::vector<int> went_busy_;
  std::vector<int> went_idle_;
  int corrupted_now_ = 0;  ///< transmissions corrupted this instant
  TimeNs corrupted_until_;  ///< latest first-frame end among them
};

}  // namespace csmabw::mac
