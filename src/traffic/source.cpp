#include "traffic/source.hpp"

#include "util/require.hpp"

namespace csmabw::traffic {

Source::Source(sim::Simulator& sim, mac::DcfStation& station, int flow,
               int size_bytes)
    : sim_(sim), station_(station), flow_(flow), size_bytes_(size_bytes) {
  CSMABW_REQUIRE(size_bytes > 0, "packet size must be positive");
}

void Source::emit(int seq) {
  mac::Packet p;
  p.flow = flow_;
  p.seq = seq;
  p.size_bytes = size_bytes_;
  station_.enqueue(p);
  ++generated_;
}

// --- PoissonSource ---

PoissonSource::PoissonSource(sim::Simulator& sim, mac::DcfStation& station,
                             int flow, int size_bytes, BitRate rate,
                             stats::Rng rng)
    : Source(sim, station, flow, size_bytes),
      mean_gap_s_(size_bytes * 8.0 / rate.to_bps()),
      rng_(rng) {
  CSMABW_REQUIRE(rate.to_bps() > 0.0, "rate must be positive");
}

void PoissonSource::start(TimeNs at) {
  CSMABW_REQUIRE(!running_, "source already started");
  running_ = true;
  // Memorylessness: the first arrival is one exponential gap after `at`,
  // which is exactly a stationary Poisson process started at `at`.
  sim_.schedule_member_at<&PoissonSource::schedule_next>(
      at + TimeNs::from_seconds(rng_.exponential(mean_gap_s_)), *this);
}

void PoissonSource::schedule_next() {
  if (!running_) {
    return;
  }
  emit(static_cast<int>(generated_));
  sim_.schedule_member_at<&PoissonSource::schedule_next>(
      sim_.now() + TimeNs::from_seconds(rng_.exponential(mean_gap_s_)), *this);
}

// --- CbrSource ---

CbrSource::CbrSource(sim::Simulator& sim, mac::DcfStation& station, int flow,
                     int size_bytes, TimeNs gap, std::uint64_t max_packets)
    : Source(sim, station, flow, size_bytes),
      gap_(gap),
      max_packets_(max_packets) {
  CSMABW_REQUIRE(gap > TimeNs::zero(), "gap must be positive");
}

void CbrSource::start(TimeNs at) {
  CSMABW_REQUIRE(!running_, "source already started");
  running_ = true;
  schedule_next(at);
}

void CbrSource::schedule_next(TimeNs at) {
  sim_.schedule_member_at<&CbrSource::on_timer>(at, *this);
}

void CbrSource::on_timer() {
  if (!running_) {
    return;
  }
  if (max_packets_ != 0 && generated_ >= max_packets_) {
    return;
  }
  emit(static_cast<int>(generated_));
  if (max_packets_ == 0 || generated_ < max_packets_) {
    schedule_next(sim_.now() + gap_);
  }
}

// --- SaturatedSource ---

SaturatedSource::SaturatedSource(sim::Simulator& sim,
                                 mac::DcfStation& station, int flow,
                                 int size_bytes, int backlog)
    : Source(sim, station, flow, size_bytes), backlog_(backlog) {
  CSMABW_REQUIRE(backlog >= 1, "backlog must be >= 1");
  // One refill per completion keeps the queue depth at `backlog`
  // forever: the station never runs dry.
  station_.on_flow(flow, [this](const mac::Packet&) {
    if (running_) {
      emit(static_cast<int>(generated_));
    }
  });
}

void SaturatedSource::start(TimeNs at) {
  CSMABW_REQUIRE(!running_, "source already started");
  running_ = true;
  sim_.schedule_member_at<&SaturatedSource::fill>(at, *this);
}

void SaturatedSource::fill() {
  for (int k = 0; k < backlog_ && running_; ++k) {
    emit(static_cast<int>(generated_));
  }
}

// --- OnOffSource ---

OnOffSource::OnOffSource(sim::Simulator& sim, mac::DcfStation& station,
                         int flow, int size_bytes, TimeNs on_gap,
                         double mean_on_s, double mean_off_s, stats::Rng rng)
    : Source(sim, station, flow, size_bytes),
      on_gap_(on_gap),
      mean_on_s_(mean_on_s),
      mean_off_s_(mean_off_s),
      rng_(rng) {
  CSMABW_REQUIRE(on_gap > TimeNs::zero(), "on-gap must be positive");
  CSMABW_REQUIRE(mean_on_s > 0.0 && mean_off_s >= 0.0,
                 "sojourn means must be positive");
}

void OnOffSource::start(TimeNs at) {
  CSMABW_REQUIRE(!running_, "source already started");
  running_ = true;
  on_ = true;
  phase_end_ = at + TimeNs::from_seconds(rng_.exponential(mean_on_s_));
  sim_.schedule_member_at<&OnOffSource::schedule_next>(at, *this);
}

void OnOffSource::schedule_next() {
  if (!running_) {
    return;
  }
  const TimeNs now = sim_.now();
  if (now >= phase_end_) {
    on_ = !on_;
    const double mean = on_ ? mean_on_s_ : mean_off_s_;
    phase_end_ = now + TimeNs::from_seconds(rng_.exponential(mean));
  }
  if (on_) {
    emit(static_cast<int>(generated_));
    sim_.schedule_member_at<&OnOffSource::schedule_next>(now + on_gap_, *this);
  } else {
    // Sleep until the off phase ends.
    sim_.schedule_member_at<&OnOffSource::schedule_next>(phase_end_, *this);
  }
}

}  // namespace csmabw::traffic
