#include "mac/station.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace csmabw::mac {

DcfStation::DcfStation(sim::Simulator& sim, Medium& medium, int id,
                       stats::Rng rng)
    : sim_(sim),
      medium_(medium),
      id_(id),
      rng_(rng),
      phy_(medium.phy()),
      data_rate_bps_(medium.phy().data_rate_bps),
      cw_(medium.phy().cw_min) {
  medium_slot_ = medium_.register_station(this);
}

void DcfStation::on_flow(int flow, Handler handler) {
  CSMABW_REQUIRE(handler != nullptr, "null handler");
  handlers_.emplace_back(flow, std::move(handler));
}

void DcfStation::emit(trace::EventKind kind, const Packet* p,
                      std::int32_t value, TimeNs aux) {
  trace::TraceSink* sink = sim_.trace();
  if (sink == nullptr) {
    return;
  }
  trace::TraceEvent e;
  e.time = sim_.now();
  e.kind = kind;
  e.station = static_cast<std::uint16_t>(id_);
  if (p != nullptr) {
    e.packet = p->id;
    e.flow = p->flow;
    e.seq = p->seq;
  }
  e.aux = aux;
  e.value = value;
  sink->on_event(e);
}

int DcfStation::head_frame_bytes() const {
  CSMABW_REQUIRE(!queue_.empty(), "no frame at the head of the queue");
  return queue_.front().size_bytes;
}

TimeNs DcfStation::head_frame_airtime() const {
  return phy_.data_tx_time_at(head_frame_bytes(), data_rate_bps_);
}

void DcfStation::set_data_rate_bps(double rate_bps) {
  CSMABW_REQUIRE(rate_bps > 0.0, "data rate must be positive");
  data_rate_bps_ = rate_bps;
}

void DcfStation::enqueue(Packet p) {
  const TimeNs now = sim_.now();
  CSMABW_REQUIRE(p.size_bytes > 0, "packet size must be positive");
  p.id = next_packet_id_++;
  p.enqueue_time = now;
  const bool was_empty = queue_.empty();
  queue_.push_back(p);
  ++stats_.enqueued;
  emit(trace::EventKind::kEnqueue, &queue_.back(), p.size_bytes, now);
  emit(trace::EventKind::kQueueDepth, nullptr,
       static_cast<std::int32_t>(queue_.size()), now);
  if (was_empty) {
    // The packet is at the head immediately: the previous head (if any)
    // was popped when its service completed.
    queue_.back().head_time = now;
    if (state_ == State::kIdle) {
      join_contention(now, /*allow_immediate=*/true);
    }
    // If a post-backoff countdown is running (state kContending with an
    // until-now empty queue), the packet simply rides the existing
    // countdown — standard behaviour.
  }
}

void DcfStation::join_contention(TimeNs from, bool allow_immediate) {
  state_ = State::kContending;
  contend_from_ = from;
  defer_ = phy_.difs();
  if (allow_immediate && phy_.immediate_access && !medium_.sensed_busy(*this)) {
    // Idle medium: transmit after DIFS without a random backoff.
    backoff_slots_ = 0;
    awaiting_immediate_ = true;
  } else {
    backoff_slots_ = rng_.uniform_int(0, cw_);
    awaiting_immediate_ = false;
  }
  emit(trace::EventKind::kBackoffStart, nullptr, backoff_slots_,
       contend_from_);
  medium_.update_contention(*this);
}

void DcfStation::tx_started(TimeNs now) {
  CSMABW_REQUIRE(state_ == State::kContending, "tx grant while not contending");
  CSMABW_REQUIRE(!queue_.empty(), "tx grant without a frame");
  state_ = State::kTransmitting;
  awaiting_immediate_ = false;
  if (retries_ == 0) {
    queue_.front().first_tx_time = now;
  }
  ++stats_.attempts;
  emit(trace::EventKind::kTxAttempt, &queue_.front(), retries_, now);
}

void DcfStation::finish_post_backoff() {
  CSMABW_REQUIRE(state_ == State::kContending && queue_.empty(),
                 "finish_post_backoff misuse");
  state_ = State::kIdle;
  awaiting_immediate_ = false;
}

void DcfStation::medium_seized(TimeNs busy_start, TimeNs idle_start) {
  if (state_ != State::kContending) {
    return;
  }
  const TimeNs count_start =
      std::max(idle_start, contend_from_) + defer_;
  if (busy_start > count_start) {
    const auto counted =
        static_cast<int>((busy_start - count_start) / phy_.slot_time);
    backoff_slots_ -= std::min(counted, backoff_slots_);
  }
  emit(trace::EventKind::kBackoffFreeze, nullptr, backoff_slots_,
       busy_start);
  if (awaiting_immediate_) {
    // Lost the idle window before the DIFS-only access completed: fall
    // back to a regular random backoff.
    backoff_slots_ = rng_.uniform_int(0, cw_);
    awaiting_immediate_ = false;
    emit(trace::EventKind::kBackoffStart, nullptr, backoff_slots_,
         contend_from_);
  }
}

void DcfStation::start_backoff(TimeNs from) {
  state_ = State::kContending;
  contend_from_ = from;
  defer_ = phy_.difs();
  backoff_slots_ = rng_.uniform_int(0, cw_);
  awaiting_immediate_ = false;
  emit(trace::EventKind::kBackoffStart, nullptr, backoff_slots_,
       contend_from_);
}

void DcfStation::tx_succeeded(TimeNs data_end, TimeNs ack_end) {
  CSMABW_REQUIRE(state_ == State::kTransmitting, "success while not transmitting");
  finish_head(/*dropped=*/false, data_end, ack_end);
}

void DcfStation::tx_collided(TimeNs retry_from) {
  CSMABW_REQUIRE(state_ == State::kTransmitting, "collision while not transmitting");
  state_ = State::kContending;
  ++retries_;
  if (retries_ > phy_.retry_limit) {
    finish_head(/*dropped=*/true, retry_from, retry_from);
    return;
  }
  cw_ = std::min(2 * (cw_ + 1) - 1, phy_.cw_max);
  start_backoff(retry_from);
}

void DcfStation::finish_head(bool dropped, TimeNs depart, TimeNs rejoin) {
  Packet pkt = queue_.front();
  queue_.pop_front();
  pkt.dropped = dropped;
  pkt.depart_time = depart;
  pkt.retries = retries_;
  if (dropped) {
    ++stats_.dropped;
  } else {
    ++stats_.delivered;
    stats_.delivered_payload_bits +=
        static_cast<std::int64_t>(pkt.size_bytes) * 8;
  }
  emit(dropped ? trace::EventKind::kDrop : trace::EventKind::kSuccess, &pkt,
       pkt.retries, depart);
  emit(trace::EventKind::kQueueDepth, nullptr,
       static_cast<std::int32_t>(queue_.size()), sim_.now());

  cw_ = phy_.cw_min;
  retries_ = 0;
  if (!queue_.empty()) {
    // The successor reaches the head at the departure — unless it
    // arrived later, during the SIFS + ACK exchange or the ACK timeout.
    queue_.front().head_time = std::max(depart, queue_.front().enqueue_time);
  }
  if (!queue_.empty() || phy_.post_backoff) {
    // Backoff for the next frame, or standard post-backoff with an empty
    // queue.  Never immediate: a station that just transmitted must back
    // off.
    start_backoff(rejoin);
  } else {
    state_ = State::kIdle;
  }
  for (const auto& [flow, handler] : handlers_) {
    if (flow == pkt.flow) {
      handler(pkt);
    }
  }
}

void DcfStation::occupation_observed(bool collision) {
  if (state_ != State::kContending) {
    return;
  }
  defer_ = (collision && phy_.use_eifs) ? phy_.eifs() : phy_.difs();
  emit(trace::EventKind::kBackoffResume, nullptr, backoff_slots_,
       sim_.now() + defer_);
}

}  // namespace csmabw::mac
