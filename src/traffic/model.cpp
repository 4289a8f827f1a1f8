#include "traffic/model.hpp"

#include <utility>

#include "util/json.hpp"
#include "util/require.hpp"

namespace csmabw::traffic {

namespace {

/// Appends ",size=N" when the spec carried an explicit size override.
void append_size(std::string* out, const std::optional<int>& size) {
  if (size.has_value()) {
    *out += ",size=" + std::to_string(*size);
  }
}

std::optional<int> size_option(const util::Options& o) {
  if (!o.has("size")) {
    return std::nullopt;
  }
  const int size = o.get("size", 0);
  CSMABW_REQUIRE(size > 0, "size must be positive");
  return size;
}

class PoissonModel : public TrafficModel {
 public:
  PoissonModel(double rate_bps, std::optional<int> size)
      : rate_bps_(rate_bps), size_(size) {}

  [[nodiscard]] std::string_view name() const override { return "poisson"; }
  [[nodiscard]] std::string describe() const override {
    std::string out = "poisson:rate=" + util::format_rate(rate_bps_);
    append_size(&out, size_);
    return out;
  }
  [[nodiscard]] std::optional<BitRate> offered_rate() const override {
    return BitRate::bps(rate_bps_);
  }
  [[nodiscard]] int packet_size(int default_size_bytes) const override {
    return size_.value_or(default_size_bytes);
  }
  [[nodiscard]] std::unique_ptr<Source> instantiate(
      SourceWiring w) const override {
    return std::make_unique<PoissonSource>(
        w.sim, w.station, w.flow, packet_size(w.default_size_bytes),
        BitRate::bps(rate_bps_), std::move(w.rng));
  }

 private:
  double rate_bps_;
  std::optional<int> size_;
};

class CbrModel : public TrafficModel {
 public:
  CbrModel(double rate_bps, std::optional<int> size)
      : rate_bps_(rate_bps), size_(size) {}

  [[nodiscard]] std::string_view name() const override { return "cbr"; }
  [[nodiscard]] std::string describe() const override {
    std::string out = "cbr:rate=" + util::format_rate(rate_bps_);
    append_size(&out, size_);
    return out;
  }
  [[nodiscard]] std::optional<BitRate> offered_rate() const override {
    return BitRate::bps(rate_bps_);
  }
  [[nodiscard]] int packet_size(int default_size_bytes) const override {
    return size_.value_or(default_size_bytes);
  }
  [[nodiscard]] std::unique_ptr<Source> instantiate(
      SourceWiring w) const override {
    const int size = packet_size(w.default_size_bytes);
    return std::make_unique<CbrSource>(w.sim, w.station, w.flow, size,
                                       BitRate::bps(rate_bps_).gap_for(size));
  }

 private:
  double rate_bps_;
  std::optional<int> size_;
};

/// `rate` is the MEAN offered rate; on-periods burst at rate/duty, so
/// the long-run average lands on `rate` while short probes see either
/// silence or a contender `1/duty` times hotter than the mean.
class OnOffModel : public TrafficModel {
 public:
  OnOffModel(double rate_bps, double duty, double burst_s,
             std::optional<int> size)
      : rate_bps_(rate_bps), duty_(duty), burst_s_(burst_s), size_(size) {
    CSMABW_REQUIRE(duty_ > 0.0 && duty_ <= 1.0, "duty must be in (0, 1]");
    CSMABW_REQUIRE(burst_s_ > 0.0, "burst must be positive");
  }

  [[nodiscard]] std::string_view name() const override { return "onoff"; }
  [[nodiscard]] std::string describe() const override {
    std::string out = "onoff:rate=" + util::format_rate(rate_bps_) +
                      ",duty=" + util::json_number(duty_) +
                      ",burst=" + util::format_duration(burst_s_);
    append_size(&out, size_);
    return out;
  }
  [[nodiscard]] std::optional<BitRate> offered_rate() const override {
    return BitRate::bps(rate_bps_);
  }
  [[nodiscard]] int packet_size(int default_size_bytes) const override {
    return size_.value_or(default_size_bytes);
  }
  [[nodiscard]] std::unique_ptr<Source> instantiate(
      SourceWiring w) const override {
    const int size = packet_size(w.default_size_bytes);
    const double peak_bps = rate_bps_ / duty_;
    const double mean_off_s = burst_s_ * (1.0 - duty_) / duty_;
    return std::make_unique<OnOffSource>(
        w.sim, w.station, w.flow, size,
        BitRate::bps(peak_bps).gap_for(size), burst_s_, mean_off_s,
        std::move(w.rng));
  }

 private:
  double rate_bps_;
  double duty_;
  double burst_s_;
  std::optional<int> size_;
};

class SaturatedModel : public TrafficModel {
 public:
  SaturatedModel(std::optional<int> size, int backlog)
      : size_(size), backlog_(backlog) {
    CSMABW_REQUIRE(backlog_ >= 1, "backlog must be >= 1");
  }

  [[nodiscard]] std::string_view name() const override { return "saturated"; }
  [[nodiscard]] std::string describe() const override {
    std::string out = "saturated";
    if (size_.has_value() || backlog_ != 2) {
      out += ":";
      bool first = true;
      if (backlog_ != 2) {
        out += "backlog=" + std::to_string(backlog_);
        first = false;
      }
      if (size_.has_value()) {
        out += (first ? "" : ",");
        out += "size=" + std::to_string(*size_);
      }
    }
    return out;
  }
  [[nodiscard]] std::optional<BitRate> offered_rate() const override {
    return std::nullopt;
  }
  [[nodiscard]] int packet_size(int default_size_bytes) const override {
    return size_.value_or(default_size_bytes);
  }
  [[nodiscard]] std::unique_ptr<Source> instantiate(
      SourceWiring w) const override {
    return std::make_unique<SaturatedSource>(
        w.sim, w.station, w.flow, packet_size(w.default_size_bytes),
        backlog_);
  }

 private:
  std::optional<int> size_;
  int backlog_;
};

}  // namespace

std::string TrafficModelRegistry::canonical(std::string_view spec) const {
  return create(spec)->describe();
}

void TrafficModelRegistry::register_builtins(TrafficModelRegistry& registry) {
  registry.add(
      "poisson",
      [](const util::Options& o) {
        const double rate = o.get_rate_bps("rate", 0.0);
        CSMABW_REQUIRE(rate > 0.0, "poisson needs rate=<rate>");
        return std::make_unique<PoissonModel>(rate, size_option(o));
      },
      "rate=<rate> (required), size=<bytes>");
  registry.add(
      "cbr",
      [](const util::Options& o) {
        const double rate = o.get_rate_bps("rate", 0.0);
        CSMABW_REQUIRE(rate > 0.0, "cbr needs rate=<rate>");
        return std::make_unique<CbrModel>(rate, size_option(o));
      },
      "rate=<rate> (required), size=<bytes>");
  registry.add(
      "onoff",
      [](const util::Options& o) {
        const double rate = o.get_rate_bps("rate", 0.0);
        CSMABW_REQUIRE(rate > 0.0, "onoff needs rate=<rate>");
        const double duty = o.get("duty", 0.5);
        const double burst = o.get_duration_s("burst", 50e-3);
        return std::make_unique<OnOffModel>(rate, duty, burst,
                                            size_option(o));
      },
      "rate=<mean rate> (required), duty=<0..1>, burst=<mean on "
      "duration>, size=<bytes>");
  registry.add(
      "saturated",
      [](const util::Options& o) {
        return std::make_unique<SaturatedModel>(size_option(o),
                                                o.get("backlog", 2));
      },
      "backlog=<packets>, size=<bytes>");
}

TrafficModelRegistry& TrafficModelRegistry::global() {
  static TrafficModelRegistry* registry = [] {
    auto* r = new TrafficModelRegistry;
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

}  // namespace csmabw::traffic
