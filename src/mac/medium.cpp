#include "mac/medium.hpp"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "mac/station.hpp"
#include "trace/event.hpp"
#include "util/require.hpp"

namespace csmabw::mac {

namespace {

std::size_t at(int i) { return static_cast<std::size_t>(i); }

}  // namespace

Medium::Medium(sim::Simulator& sim, const PhyParams& phy,
               topo::TopologyPtr topology)
    : sim_(sim),
      phy_(phy),
      topology_(std::move(topology)),
      fire_timer_(sim.add_timer<&Medium::fire>(*this)),
      end_timer_(sim.add_timer<&Medium::advance>(*this)) {
  phy_.validate();
  if (topology_ == nullptr) {
    return;
  }
  const int n = topology_->num_nodes();
  stations_.reserve(at(n));
  complete_ = topology_->is_clique();
  if (complete_) {
    return;
  }
  sensed_tx_.assign(at(n), 0);
  node_idle_start_.assign(at(n), TimeNs{});
  saw_corrupt_.assign(at(n), 0);
  tx_state_.assign(at(n), kTxIdle);
  own_outcome_.assign(at(n), 0);
  fire_idx_.reset(n);
  end_idx_.reset(n);
  ended_.reserve(at(n));
  went_busy_.reserve(at(n));
  went_idle_.reserve(at(n));
}

int Medium::register_station(DcfStation* s) {
  CSMABW_REQUIRE(s != nullptr, "null station");
  CSMABW_REQUIRE(topology_ == nullptr ||
                     static_cast<int>(stations_.size()) <
                         topology_->num_nodes(),
                 "topology `" + topology_->spec() + "` has " +
                     std::to_string(topology_->num_nodes()) +
                     " nodes; cannot register another station");
  stations_.push_back(s);
  if (complete_) {
    contenders_.emplace_back();
  }
  // Every station can win or end at one instant: size the per-event
  // scratch now so no event allocates.
  const std::size_t cap = stations_.capacity();
  winners_.reserve(cap);
  post_backoff_.reserve(cap);
  txs_.reserve(cap);
  ended_txs_.reserve(cap);
  return static_cast<int>(stations_.size()) - 1;
}

void Medium::bind_metrics(obs::Registry* reg) {
  if (reg == nullptr || complete_) {
    m_updates_ = obs::Counter{};
    m_sweeps_ = obs::Counter{};
    m_rearms_ = obs::Counter{};
    return;
  }
  m_updates_ = reg->counter("topo.medium.updates");
  m_sweeps_ = reg->counter("topo.medium.neighborhood_sweeps");
  m_rearms_ = reg->counter("topo.medium.fire_rearms");
}

bool Medium::sensed_busy(const DcfStation& s) const {
  return complete_ ? !txs_.empty() : sensed_tx_[at(s.medium_slot())] > 0;
}

TimeNs Medium::fire_time(const DcfStation& s, TimeNs idle_since) const {
  return std::max(idle_since, s.contend_from()) + s.defer() +
         phy_.slot_time * s.backoff_slots();
}

void Medium::update_contention(DcfStation& s) {
  m_updates_.add(1);
  if (sensed_busy(s)) {
    return;  // refreshed when s's channel clears
  }
  refresh(s.medium_slot());
  sync_pending_fire();
}

void Medium::refresh(int i) {
  const DcfStation& s = *stations_[at(i)];
  if (complete_) {
    Contender& c = contenders_[at(i)];
    c.active = s.in_contention();
    if (c.active) {
      c.fire = fire_time(s, idle_start_);
    }
    if (i == min_slot_) {
      // The minimum's owner changed; it may no longer be the minimum.
      rescan_min();
    } else if (c.active && (min_slot_ < 0 ||
                            c.fire < contenders_[at(min_slot_)].fire)) {
      min_slot_ = i;
    }
    return;
  }
  if (s.in_contention() && sensed_tx_[at(i)] == 0 &&
      tx_state_[at(i)] == kTxIdle) {
    fire_idx_.set(i, fire_time(s, node_idle_start_[at(i)]));
  } else {
    fire_idx_.erase(i);
  }
}

void Medium::rescan_min() {
  min_slot_ = -1;
  for (std::size_t i = 0; i < contenders_.size(); ++i) {
    const Contender& c = contenders_[i];
    if (c.active &&
        (min_slot_ < 0 || c.fire < contenders_[at(min_slot_)].fire)) {
      min_slot_ = static_cast<int>(i);
    }
  }
}

void Medium::reschedule_all() {
  min_slot_ = -1;
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    Contender& c = contenders_[i];
    const DcfStation& s = *stations_[i];
    c.active = s.in_contention();
    if (c.active) {
      c.fire = fire_time(s, idle_start_);
      if (min_slot_ < 0 || c.fire < contenders_[at(min_slot_)].fire) {
        min_slot_ = static_cast<int>(i);
      }
    }
  }
}

void Medium::sync_pending_fire() {
  if (complete_ && !txs_.empty()) {
    return;  // a busy cell has no live countdown; its fire already ran
  }
  if (complete_ ? min_slot_ < 0 : fire_idx_.empty()) {
    sim_.disarm(fire_timer_);
    return;
  }
  const TimeNs earliest = complete_ ? contenders_[at(min_slot_)].fire
                                    : fire_idx_.top_time();
  CSMABW_REQUIRE(earliest >= sim_.now(), "fire time in the past");
  m_rearms_.add(1);
  sim_.arm(fire_timer_, earliest);
}

void Medium::sync_pending_end() {
  TimeNs end;
  if (complete_) {
    // One end per occupation, armed as it starts; the previous one has
    // always run by then.
    if (txs_.empty()) {
      return;
    }
    end = txs_.front().start;  // the occupation ends with its last frame
    for (const Tx& t : txs_) {
      end = std::max(end, tx_end(t));
    }
  } else {
    if (end_idx_.empty()) {
      sim_.disarm(end_timer_);
      return;
    }
    end = end_idx_.top_time();
  }
  CSMABW_REQUIRE(end >= sim_.now(), "transmission end in the past");
  sim_.arm(end_timer_, end);
}

// ------------------------------------------------------------------ fire

void Medium::fire() {
  const TimeNs now = sim_.now();
  collect_due(now);
  CSMABW_REQUIRE(!winners_.empty() || !post_backoff_.empty(),
                 "fire event with no station due");
  for (int i : post_backoff_) {
    stations_[at(i)]->finish_post_backoff();
  }
  if (winners_.empty()) {
    for (int i : post_backoff_) {
      refresh(i);
    }
    sync_pending_fire();
    return;
  }

  seize(now);
  if (txs_.empty()) {
    busy_mark_ = now;  // a busy period starts: charge busy time from here
  }
  launch(now);
  detect_corruption(now);
  if (corrupted_now_ > 0) {
    ++stats_.collisions;
    stats_.collided_frames += static_cast<std::uint64_t>(corrupted_now_);
    if (trace::TraceSink* sink = sim_.trace()) {
      trace::TraceEvent e;
      e.time = now;
      e.kind = trace::EventKind::kCollision;
      e.station = trace::kChannelStation;
      e.aux = corrupted_until_;
      e.value = corrupted_now_;
      sink->on_event(e);
    }
  }
  sync_pending_fire();
  sync_pending_end();
}

void Medium::collect_due(TimeNs now) {
  winners_.clear();
  post_backoff_.clear();
  const auto take = [this](int i) {
    (stations_[at(i)]->has_frame() ? winners_ : post_backoff_).push_back(i);
  };
  if (complete_) {
    // The cache is authoritative while the cell is idle: every
    // contention change since the last occupation refreshed it.
    for (std::size_t i = 0; i < contenders_.size(); ++i) {
      const Contender& c = contenders_[i];
      if (c.active && c.fire == now) {
        take(static_cast<int>(i));
      }
    }
    return;
  }
  // The (time, node) heap order pops them in ascending node order.
  while (!fire_idx_.empty() && fire_idx_.top_time() == now) {
    take(fire_idx_.pop_top());
  }
}

void Medium::seize(TimeNs now) {
  if (complete_) {
    // Every other contender freezes before the channel state changes:
    // the whole slots it observed are measured against the idle period
    // ending now.  winners_ is ascending, so one merge walk skips it.
    std::size_t w = 0;
    for (std::size_t i = 0; i < stations_.size(); ++i) {
      if (w < winners_.size() && at(winners_[w]) == i) {
        ++w;
        continue;
      }
      DcfStation* s = stations_[i];
      if (s->in_contention()) {
        s->medium_seized(now, idle_start_);
      }
    }
    return;
  }
  // Mark the winners first so a neighbor about to transmit itself is
  // not frozen.
  for (int w : winners_) {
    tx_state_[at(w)] = kTxWinning;
  }
  // A station whose channel goes busy (0 -> 1 sensed transmissions)
  // freezes against the idle period ending now, in ascending order.
  went_busy_.clear();
  for (int w : winners_) {
    m_sweeps_.add(1);
    for (int nb : topology_->sense(w)) {
      if (sensed_tx_[at(nb)]++ == 0) {
        went_busy_.push_back(nb);
      }
    }
  }
  std::sort(went_busy_.begin(), went_busy_.end());
  for (int nb : went_busy_) {
    fire_idx_.erase(nb);  // a busy channel has no live countdown
    if (tx_state_[at(nb)] != kTxIdle) {
      continue;  // about to transmit (or already on the air)
    }
    stations_[at(nb)]->medium_seized(now, node_idle_start_[at(nb)]);
  }
}

void Medium::launch(TimeNs now) {
  // The frame a station puts on the air first is the data frame itself,
  // or an RTS when the payload exceeds the RTS threshold.  Collisions
  // involve (and cost) only these first frames.
  for (int w : winners_) {
    DcfStation* s = stations_[at(w)];
    Tx t;
    t.station = w;
    t.rts = phy_.uses_rts(s->head_frame_bytes());
    t.start = now;
    t.first_end = now + (t.rts ? phy_.rts_tx_time() : s->head_frame_airtime());
    // RTS + SIFS + CTS + SIFS + DATA + SIFS + ACK as one exchange.
    t.data_end = t.rts ? t.first_end + phy_.sifs + phy_.cts_tx_time() +
                             phy_.sifs + s->head_frame_airtime()
                       : t.first_end;
    t.success_end = t.data_end + phy_.sifs + phy_.ack_tx_time();
    s->tx_started(now);
    if (!complete_) {
      tx_state_[at(w)] = static_cast<std::int32_t>(txs_.size());
      end_idx_.set(w, tx_end(t));
    }
    txs_.push_back(t);
  }
}

void Medium::detect_corruption(TimeNs now) {
  corrupted_now_ = 0;
  corrupted_until_ = now;
  if (complete_) {
    // Everyone hears everyone: the only overlap is a tie of winners.
    if (txs_.size() > 1) {
      for (Tx& t : txs_) {
        mark_corrupted(t);
      }
    }
    return;
  }
  // A new transmission is corrupted by any interferer on the air (its
  // first frame starts inside foreign airtime); an ongoing interferer is
  // corrupted in return only while its own first frame is in flight.
  for (int w : winners_) {
    Tx& wt = txs_[at(tx_state_[at(w)])];
    m_sweeps_.add(1);
    for (int j : topology_->interfere(w)) {
      const std::int32_t jt_idx = tx_state_[at(j)];
      if (jt_idx < 0) {
        continue;  // j is not on the air
      }
      Tx& jt = txs_[at(jt_idx)];
      if (tx_end(jt) <= now) {
        continue;  // ending exactly now: no overlap
      }
      mark_corrupted(wt);
      if (now < jt.first_end) {
        mark_corrupted(jt);
      }
    }
  }
}

void Medium::mark_corrupted(Tx& t) {
  if (t.corrupted) {
    return;
  }
  t.corrupted = true;  // the end moves from the ACK to the first frame
  ++corrupted_now_;
  corrupted_until_ = std::max(corrupted_until_, t.first_end);
  if (!complete_) {
    end_idx_.set(t.station, t.first_end);
  }
}

// --------------------------------------------------------------- advance

void Medium::advance() {
  const TimeNs now = sim_.now();
  release(now);
  CSMABW_REQUIRE(!ended_txs_.empty(),
                 "transmission end event with nothing ending");
  stats_.busy_time += now - busy_mark_;
  busy_mark_ = now;

  // Transmitter outcomes first, ascending: retry backoff behind the
  // CTS/ACK timeout, or next-packet / post-backoff after a success.
  for (const Tx& t : ended_txs_) {
    DcfStation* s = stations_[at(t.station)];
    if (t.corrupted) {
      s->tx_collided(t.first_end +
                     (t.rts ? phy_.cts_timeout() : phy_.ack_timeout()));
    } else {
      ++stats_.successes;
      s->tx_succeeded(t.data_end, now);
    }
  }
  observe_clear_channels();

  if (complete_) {
    reschedule_all();  // the idle origin moved for every station
  } else {
    // The idle origin moved for every node that went idle, and the
    // ended transmitters changed contention state: refresh exactly
    // those.
    for (const Tx& t : ended_txs_) {
      refresh(t.station);
      if (sensed_tx_[at(t.station)] == 0) {
        own_outcome_[at(t.station)] = 0;  // its channel is clear already
      }
    }
    for (int nb : went_idle_) {
      refresh(nb);
    }
  }
  sync_pending_fire();
  sync_pending_end();
}

void Medium::release(TimeNs now) {
  ended_txs_.clear();
  if (complete_) {
    // The occupation ends as a whole and the cell's channel clears.
    ended_txs_.swap(txs_);
    idle_start_ = now;
    return;
  }
  ended_.clear();
  while (!end_idx_.empty() && end_idx_.top_time() == now) {
    const std::int32_t idx = tx_state_[at(end_idx_.pop_top())];
    ended_.push_back(idx);
    ended_txs_.push_back(txs_[at(idx)]);
  }
  // Channel transitions before any callback: every sensing neighbor of
  // an ended transmission decrements its busy count, and a corrupted
  // ending poisons the next idle period (EIFS) of everyone who heard it.
  went_idle_.clear();
  for (const Tx& t : ended_txs_) {
    own_outcome_[at(t.station)] = 1;
    tx_state_[at(t.station)] = kTxIdle;
    m_sweeps_.add(1);
    for (int nb : topology_->sense(t.station)) {
      if (t.corrupted) {
        saw_corrupt_[at(nb)] = 1;
      }
      if (--sensed_tx_[at(nb)] == 0) {
        node_idle_start_[at(nb)] = now;
        went_idle_.push_back(nb);
      }
    }
  }
  // Compact the on-air slab (descending slab index, so swap-erase stays
  // valid).
  std::sort(ended_.begin(), ended_.end(), std::greater<>());
  for (int idx : ended_) {
    const int last = static_cast<int>(txs_.size()) - 1;
    if (idx != last) {
      txs_[at(idx)] = txs_[at(last)];
      tx_state_[at(txs_[at(idx)].station)] = static_cast<std::int32_t>(idx);
    }
    txs_.pop_back();
  }
}

void Medium::observe_clear_channels() {
  if (complete_) {
    // Every station but the transmitters heard the occupation (ascending,
    // like the transmitters, so one merge walk skips them).
    const bool collision = ended_txs_.front().corrupted;
    std::size_t k = 0;
    for (std::size_t i = 0; i < stations_.size(); ++i) {
      if (k < ended_txs_.size() && at(ended_txs_[k].station) == i) {
        ++k;
        continue;
      }
      stations_[i]->occupation_observed(collision);
    }
    return;
  }
  std::sort(went_idle_.begin(), went_idle_.end());
  for (int nb : went_idle_) {
    const bool corrupt = saw_corrupt_[at(nb)] != 0;
    saw_corrupt_[at(nb)] = 0;
    if (own_outcome_[at(nb)] != 0) {
      own_outcome_[at(nb)] = 0;
      continue;  // its own outcome set its deference
    }
    if (tx_state_[at(nb)] >= 0) {
      continue;  // still transmitting: no countdown to resume
    }
    stations_[at(nb)]->occupation_observed(corrupt);
  }
}

}  // namespace csmabw::mac
