#include "traffic/probe_train.hpp"

#include <cmath>
#include <limits>

#include "util/require.hpp"

namespace csmabw::traffic {

ProbeTrain::ProbeTrain(sim::Simulator& sim, mac::DcfStation& station,
                       TrainSpec spec, int flow)
    : sim_(sim), station_(station), spec_(spec), flow_(flow) {
  CSMABW_REQUIRE(spec.n >= 2, "a train needs at least two packets");
  CSMABW_REQUIRE(spec.size_bytes > 0, "probe size must be positive");
  CSMABW_REQUIRE(spec.gap >= TimeNs::zero(), "gap must be non-negative");
  records_.resize(static_cast<std::size_t>(spec.n));
}

void ProbeTrain::start(TimeNs first_arrival) {
  for (int k = 0; k < spec_.n; ++k) {
    const TimeNs at = first_arrival + spec_.gap * k;
    sim_.schedule_at(at, [this, k] {
      mac::Packet p;
      p.flow = flow_;
      p.seq = k;
      p.size_bytes = spec_.size_bytes;
      station_.enqueue(p);
    });
  }
}

void ProbeTrain::on_packet_done(const mac::Packet& p) {
  CSMABW_REQUIRE(p.flow == flow_, "packet routed to the wrong train");
  CSMABW_REQUIRE(p.seq >= 0 && p.seq < spec_.n, "probe seq out of range");
  records_[static_cast<std::size_t>(p.seq)] = p;
  if (p.dropped) {
    ++drops_;
  }
  ++done_;
}

std::vector<double> ProbeTrain::access_delays_s() const {
  CSMABW_REQUIRE(complete(), "train not complete");
  std::vector<double> out;
  out.reserve(records_.size());
  for (const auto& p : records_) {
    out.push_back(p.dropped ? std::numeric_limits<double>::quiet_NaN()
                            : p.access_delay_s());
  }
  return out;
}

std::vector<TimeNs> ProbeTrain::departures() const {
  CSMABW_REQUIRE(complete(), "train not complete");
  CSMABW_REQUIRE(drops_ == 0, "train suffered drops");
  std::vector<TimeNs> out;
  out.reserve(records_.size());
  for (const auto& p : records_) {
    out.push_back(p.depart_time);
  }
  return out;
}

}  // namespace csmabw::traffic
