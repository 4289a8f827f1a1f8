#include "trace/query/agg.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "core/scenario.hpp"
#include "exp/collector.hpp"
#include "exp/engine.hpp"
#include "stats/histogram.hpp"
#include "trace/replay.hpp"
#include "util/options.hpp"
#include "util/require.hpp"

namespace csmabw::trace::query {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

[[noreturn]] void reject_where(std::string_view agg,
                               const QueryPredicate& pred) {
  throw util::PreconditionError(
      "aggregation `" + std::string(agg) +
      "` reconstructs packet lifecycles and needs the complete event "
      "stream; it cannot run under --where=" + pred.describe());
}

util::Value station_value(std::uint16_t station) {
  if (station == kChannelStation) {
    return util::Value("channel");
  }
  return util::Value(static_cast<int>(station));
}

// ---------------------------------------------------------------- counts

/// Per-station, per-kind event counts.  Pure integer sums, so it is the
/// one built-in that composes with any --where predicate and with
/// page-granular work units.
class CountsAgg final : public Aggregation {
  class Partial final : public AggPartial {
   public:
    void on_event(const TraceEvent& e) override {
      ++counts[e.station][static_cast<std::size_t>(kind_index(e.kind))];
    }
    std::map<std::uint16_t, std::array<std::uint64_t, kEventKindCount>>
        counts;
  };

 public:
  [[nodiscard]] std::string_view name() const override { return "counts"; }

  [[nodiscard]] std::unique_ptr<AggPartial> make_partial(
      const FileContext&) const override {
    return std::make_unique<Partial>();
  }

  void absorb(AggPartial& partial) override {
    for (const auto& [station, kinds] :
         static_cast<Partial&>(partial).counts) {
      auto& into = counts_[station];
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        into[k] += kinds[k];
      }
    }
  }

  [[nodiscard]] std::vector<std::string> columns() const override {
    std::vector<std::string> cols{"station"};
    for (int k = 1; k <= kEventKindCount; ++k) {
      cols.emplace_back(kind_name(static_cast<EventKind>(k)));
    }
    cols.emplace_back("total");
    return cols;
  }

  [[nodiscard]] std::vector<std::vector<util::Value>> rows()
      const override {
    std::vector<std::vector<util::Value>> out;
    for (const auto& [station, kinds] : counts_) {
      std::vector<util::Value> row{station_value(station)};
      std::uint64_t total = 0;
      for (const std::uint64_t n : kinds) {
        row.emplace_back(static_cast<double>(n));
        total += n;
      }
      row.emplace_back(static_cast<double>(total));
      out.push_back(std::move(row));
    }
    return out;
  }

 private:
  std::map<std::uint16_t, std::array<std::uint64_t, kEventKindCount>>
      counts_;
};

// ------------------------------------------------- packet reconstruction

/// Shared partial of the lifecycle-replaying aggregations: streams the
/// unit's (whole file's) events through a PacketReconstructor.
class ReplayPartial final : public AggPartial {
 public:
  void on_event(const TraceEvent& e) override { rec.on_event(e); }
  PacketReconstructor rec;
};

// ----------------------------------------------------------------- delay

/// Per-cell transient statistics (the paper's fig06/08/10) recomputed
/// from a recorded campaign: files group by cell in repetition order and
/// fold through exp::TrainCellStats in shards of the engine's default
/// size, merged in shard order like the live run's, so the rows equal
/// the live campaign's metric columns bit for bit.
class DelayAgg final : public Aggregation {
 public:
  explicit DelayAgg(const util::Options& opts)
      : flow_(opts.get("flow", core::kProbeFlow)),
        tol_(opts.get("tol", 0.1)) {
    tcfg_.ks_prefix = opts.get("ks_prefix", 1);
    tcfg_.steady_tail = opts.get("steady_tail", 0);
  }

  [[nodiscard]] std::string_view name() const override { return "delay"; }
  [[nodiscard]] bool whole_file() const override { return true; }

  void validate(const QueryPredicate& pred) const override {
    if (!pred.match_all()) {
      reject_where(name(), pred);
    }
  }

  [[nodiscard]] std::unique_ptr<AggPartial> make_partial(
      const FileContext&) const override {
    return std::make_unique<ReplayPartial>();
  }

  void absorb(AggPartial& partial) override {
    const FileContext& ctx = partial.context();
    CSMABW_REQUIRE(ctx.meta.train_n >= 2,
                   "`" + ctx.path + "` is not a probe-train recording");
    if (!cell_ || cell_->first_meta.cell != ctx.meta.cell) {
      flush_cell();
      cell_ = CellState{ctx.path, ctx.meta,
                        exp::TrainCellStats(ctx.meta.train_n, tcfg_),
                        exp::TrainCellStats(ctx.meta.train_n, tcfg_)};
    }
    CSMABW_REQUIRE(ctx.meta.repetition == cell_->reps,
                   "cell " + std::to_string(ctx.meta.cell) +
                       " is missing repetition " +
                       std::to_string(cell_->reps) + " (found `" + ctx.path +
                       "`)");
    TraceMeta expected = cell_->first_meta;
    expected.repetition = cell_->reps;
    CSMABW_REQUIRE(ctx.meta == expected,
                   "`" + ctx.path +
                       "` does not belong to the same recording as `" +
                       cell_->first_path +
                       "` (stale traces from an earlier run? clear the "
                       "directory and re-record)");
    cell_->shard.add(exp::train_rep_record(replay_train(
        static_cast<ReplayPartial&>(partial).rec.packets(), flow_)));
    if (++cell_->reps % tcfg_.shard_size == 0) {
      close_shard();
    }
  }

  void finish() override { flush_cell(); }

  [[nodiscard]] std::vector<std::string> columns() const override {
    // campaign_sweep's metric columns after the cell index instead of
    // the sweep coordinates (a trace directory may mix hand-recorded
    // cells): the CI determinism gate diffs them against the live
    // campaign CSV.
    std::vector<std::string> columns{"cell"};
    const std::vector<std::string> metrics =
        exp::Collector::train_columns(tol_);
    columns.insert(columns.end(), metrics.begin(), metrics.end());
    return columns;
  }

  [[nodiscard]] std::vector<std::vector<util::Value>> rows()
      const override {
    return rows_;
  }

 private:
  struct CellState {
    std::string first_path;
    TraceMeta first_meta;
    exp::TrainCellStats stats;  ///< the closed shards, merged in order
    exp::TrainCellStats shard;  ///< the shard being filled
    int reps = 0;
  };

  void close_shard() {
    cell_->stats.merge(cell_->shard);
    cell_->shard = exp::TrainCellStats(cell_->first_meta.train_n, tcfg_);
  }

  void flush_cell() {
    if (!cell_) {
      return;
    }
    if (cell_->reps % tcfg_.shard_size != 0) {
      close_shard();  // the cell's last, partial shard
    }
    std::vector<util::Value> row{cell_->first_meta.cell};
    const std::vector<util::Value> metrics = exp::Collector::train_metrics(
        cell_->stats, cell_->first_meta.train_size, tol_);
    row.insert(row.end(), metrics.begin(), metrics.end());
    rows_.push_back(std::move(row));
    cell_.reset();
  }

  int flow_;
  double tol_;
  exp::TrainCampaignConfig tcfg_;
  std::optional<CellState> cell_;
  std::vector<std::vector<util::Value>> rows_;
};

// ------------------------------------------------------------ delay-hist

/// Access-delay histograms (the shape behind the paper's Fig 7), grouped
/// by probe-train position or by station.
class DelayHistAgg final : public Aggregation {
 public:
  explicit DelayHistAgg(const util::Options& opts)
      : by_(opts.get("by", "position")),
        lo_ms_(opts.get("lo_ms", 0.0)),
        hi_ms_(opts.get("hi_ms", 50.0)),
        bins_(opts.get("bins", 50)),
        flow_(opts.get("flow",
                       by_ == "position" ? core::kProbeFlow : kAllFlows)) {
    CSMABW_REQUIRE(by_ == "position" || by_ == "station",
                   "aggregation `delay-hist`: by=" + by_ +
                       " (want position or station)");
    CSMABW_REQUIRE(bins_ > 0 && hi_ms_ > lo_ms_,
                   "aggregation `delay-hist`: empty histogram range");
  }

  [[nodiscard]] std::string_view name() const override {
    return "delay-hist";
  }
  [[nodiscard]] bool whole_file() const override { return true; }

  void validate(const QueryPredicate& pred) const override {
    if (!pred.match_all()) {
      reject_where(name(), pred);
    }
  }

  [[nodiscard]] std::unique_ptr<AggPartial> make_partial(
      const FileContext&) const override {
    return std::make_unique<ReplayPartial>();
  }

  void absorb(AggPartial& partial) override {
    for (const ReplayPacket& rp :
         static_cast<ReplayPartial&>(partial).rec.packets()) {
      if (rp.packet.dropped) {
        continue;
      }
      if (flow_ != kAllFlows && rp.packet.flow != flow_) {
        continue;
      }
      const int key = by_ == "position" ? rp.packet.seq : rp.station;
      hists_.try_emplace(key, lo_ms_, hi_ms_, bins_)
          .first->second.add(rp.packet.access_delay_s() * 1e3);
    }
  }

  [[nodiscard]] std::vector<std::string> columns() const override {
    return {by_, "bin", "center_ms", "count", "frequency"};
  }

  [[nodiscard]] std::vector<std::vector<util::Value>> rows()
      const override {
    // Long form, one row per (group, bin); bin -1 / bins() carry the
    // underflow/overflow mass (center is NaN there).
    std::vector<std::vector<util::Value>> out;
    for (const auto& [key, hist] : hists_) {
      const double total = static_cast<double>(hist.total());
      const auto emit = [&](int bin, double center, std::int64_t count) {
        out.push_back({key, bin, center, static_cast<double>(count),
                       total > 0.0 ? count / total : 0.0});
      };
      emit(-1, kNaN, hist.underflow());
      for (int b = 0; b < hist.bins(); ++b) {
        emit(b, hist.bin_center(b), hist.count(b));
      }
      emit(hist.bins(), kNaN, hist.overflow());
    }
    return out;
  }

 private:
  static constexpr int kAllFlows = std::numeric_limits<int>::min();

  std::string by_;
  double lo_ms_;
  double hi_ms_;
  int bins_;
  int flow_;
  std::map<int, stats::Histogram> hists_;
};

// --------------------------------------------------------------- airtime

/// Per-station channel-occupation accounting.  A station's pending
/// attempt (kTxAttempt) resolves either into a success/drop of its own
/// or into a channel collision whose [time, aux] occupation is credited
/// to every station that fired on that slot boundary.
class AirtimeAgg final : public Aggregation {
  struct Totals {
    std::int64_t busy_ns = 0;
    std::uint64_t attempts = 0;
    std::uint64_t successes = 0;
    std::uint64_t drops = 0;
    std::uint64_t collisions = 0;
  };

  class Partial final : public AggPartial {
   public:
    void on_event(const TraceEvent& e) override {
      const std::int64_t t = e.time.count();
      first_ns = std::min(first_ns, t);
      last_ns = std::max(last_ns, std::max(t, e.aux.count()));
      switch (e.kind) {
        case EventKind::kTxAttempt:
          ++totals[e.station].attempts;
          pending[e.station] = t;
          break;
        case EventKind::kCollision:
          for (auto it = pending.begin(); it != pending.end();) {
            if (it->second == t) {
              totals[it->first].busy_ns += e.aux.count() - t;
              ++totals[it->first].collisions;
              it = pending.erase(it);
            } else {
              ++it;
            }
          }
          break;
        case EventKind::kSuccess:
          if (const auto it = pending.find(e.station);
              it != pending.end()) {
            totals[e.station].busy_ns += t - it->second;
            pending.erase(it);
          }
          ++totals[e.station].successes;
          break;
        case EventKind::kDrop:
          // The final attempt's collision already credited its airtime.
          ++totals[e.station].drops;
          pending.erase(e.station);
          break;
        default:
          break;
      }
    }

    std::map<std::uint16_t, std::int64_t> pending;
    std::map<std::uint16_t, Totals> totals;
    std::int64_t first_ns = std::numeric_limits<std::int64_t>::max();
    std::int64_t last_ns = std::numeric_limits<std::int64_t>::min();
  };

 public:
  [[nodiscard]] std::string_view name() const override { return "airtime"; }
  [[nodiscard]] bool whole_file() const override { return true; }

  void validate(const QueryPredicate& pred) const override {
    if (!pred.match_all()) {
      reject_where(name(), pred);
    }
  }

  [[nodiscard]] std::unique_ptr<AggPartial> make_partial(
      const FileContext&) const override {
    return std::make_unique<Partial>();
  }

  void absorb(AggPartial& partial) override {
    auto& p = static_cast<Partial&>(partial);
    for (const auto& [station, t] : p.totals) {
      Totals& into = totals_[station];
      into.busy_ns += t.busy_ns;
      into.attempts += t.attempts;
      into.successes += t.successes;
      into.drops += t.drops;
      into.collisions += t.collisions;
    }
    if (p.last_ns > p.first_ns) {
      wall_ns_ += p.last_ns - p.first_ns;
    }
  }

  [[nodiscard]] std::vector<std::string> columns() const override {
    return {"station",    "attempts", "successes", "drops",
            "collisions", "busy_ms",  "share"};
  }

  [[nodiscard]] std::vector<std::vector<util::Value>> rows()
      const override {
    std::vector<std::vector<util::Value>> out;
    for (const auto& [station, t] : totals_) {
      out.push_back({station_value(station),
                     static_cast<double>(t.attempts),
                     static_cast<double>(t.successes),
                     static_cast<double>(t.drops),
                     static_cast<double>(t.collisions),
                     static_cast<double>(t.busy_ns) / 1e6,
                     wall_ns_ > 0 ? static_cast<double>(t.busy_ns) /
                                        static_cast<double>(wall_ns_)
                                  : kNaN});
    }
    return out;
  }

 private:
  std::map<std::uint16_t, Totals> totals_;
  std::int64_t wall_ns_ = 0;
};

// ------------------------------------------------------------ collisions

/// Pairwise collision-involvement matrix: how often stations a and b
/// fired on the same slot boundary.  Station pairs come from matching
/// pending kTxAttempt times against each kCollision instant, the same
/// join the airtime aggregation uses.
class CollisionsAgg final : public Aggregation {
  class Partial final : public AggPartial {
   public:
    void on_event(const TraceEvent& e) override {
      const std::int64_t t = e.time.count();
      switch (e.kind) {
        case EventKind::kTxAttempt:
          pending[e.station] = t;
          break;
        case EventKind::kCollision: {
          parties.clear();
          for (auto it = pending.begin(); it != pending.end();) {
            if (it->second == t) {
              parties.push_back(it->first);
              it = pending.erase(it);
            } else {
              ++it;
            }
          }
          // std::map iterates stations ascending, so parties is sorted
          // and every unordered pair lands as (low, high).
          for (std::size_t a = 0; a < parties.size(); ++a) {
            for (std::size_t b = a + 1; b < parties.size(); ++b) {
              ++pairs[{parties[a], parties[b]}];
            }
          }
          break;
        }
        case EventKind::kSuccess:
        case EventKind::kDrop:
          pending.erase(e.station);
          break;
        default:
          break;
      }
    }

    std::map<std::uint16_t, std::int64_t> pending;
    std::vector<std::uint16_t> parties;
    std::map<std::pair<std::uint16_t, std::uint16_t>, std::uint64_t> pairs;
  };

 public:
  [[nodiscard]] std::string_view name() const override {
    return "collisions";
  }
  [[nodiscard]] bool whole_file() const override { return true; }

  void validate(const QueryPredicate& pred) const override {
    if (!pred.match_all()) {
      reject_where(name(), pred);
    }
  }

  [[nodiscard]] std::unique_ptr<AggPartial> make_partial(
      const FileContext&) const override {
    return std::make_unique<Partial>();
  }

  void absorb(AggPartial& partial) override {
    for (const auto& [pair, n] : static_cast<Partial&>(partial).pairs) {
      pairs_[pair] += n;
    }
  }

  [[nodiscard]] std::vector<std::string> columns() const override {
    return {"station_a", "station_b", "collisions"};
  }

  [[nodiscard]] std::vector<std::vector<util::Value>> rows()
      const override {
    std::vector<std::vector<util::Value>> out;
    for (const auto& [pair, n] : pairs_) {
      out.push_back({station_value(pair.first), station_value(pair.second),
                     static_cast<double>(n)});
    }
    return out;
  }

 private:
  std::map<std::pair<std::uint16_t, std::uint16_t>, std::uint64_t> pairs_;
};

// ---------------------------------------------------------------- qdepth

/// Per-station time-weighted queue-depth timeline: integrates the
/// piecewise-constant depth process into fixed time buckets.  All
/// accumulation is int64 depth·nanoseconds, so merging across files and
/// threads is exact.
class QdepthAgg final : public Aggregation {
  class Partial final : public AggPartial {
   public:
    explicit Partial(std::int64_t bucket_ns) : bucket_ns_(bucket_ns) {}

    void on_event(const TraceEvent& e) override {
      if (e.kind != EventKind::kQueueDepth) {
        return;
      }
      const std::int64_t t = e.time.count();
      if (const auto it = last.find(e.station); it != last.end()) {
        const auto [lt, depth] = it->second;
        add_span(e.station, lt, t, depth);
      }
      last[e.station] = {t, e.value};
    }

    std::map<std::uint16_t, std::pair<std::int64_t, std::int32_t>> last;
    std::map<std::uint16_t, std::map<std::int64_t, std::int64_t>> acc;

   private:
    void add_span(std::uint16_t station, std::int64_t from,
                  std::int64_t to, std::int64_t depth) {
      if (depth == 0 || to <= from) {
        return;
      }
      auto& buckets = acc[station];
      for (std::int64_t b = from / bucket_ns_; b * bucket_ns_ < to; ++b) {
        const std::int64_t lo = std::max(from, b * bucket_ns_);
        const std::int64_t hi = std::min(to, (b + 1) * bucket_ns_);
        buckets[b] += depth * (hi - lo);
      }
    }

    std::int64_t bucket_ns_;
  };

 public:
  explicit QdepthAgg(const util::Options& opts)
      : bucket_ns_(static_cast<std::int64_t>(
            std::llround(opts.get("bucket_ms", 10.0) * 1e6))) {
    CSMABW_REQUIRE(bucket_ns_ > 0,
                   "aggregation `qdepth`: bucket_ms must be positive");
  }

  [[nodiscard]] std::string_view name() const override { return "qdepth"; }
  [[nodiscard]] bool whole_file() const override { return true; }

  void validate(const QueryPredicate& pred) const override {
    if (!pred.match_all()) {
      reject_where(name(), pred);
    }
  }

  [[nodiscard]] std::unique_ptr<AggPartial> make_partial(
      const FileContext&) const override {
    return std::make_unique<Partial>(bucket_ns_);
  }

  void absorb(AggPartial& partial) override {
    for (const auto& [station, buckets] :
         static_cast<Partial&>(partial).acc) {
      auto& into = acc_[station];
      for (const auto& [bucket, depth_ns] : buckets) {
        into[bucket] += depth_ns;
      }
    }
    ++files_;
  }

  [[nodiscard]] std::vector<std::string> columns() const override {
    return {"station", "bucket", "t_ms", "depth_ms", "mean_depth"};
  }

  [[nodiscard]] std::vector<std::vector<util::Value>> rows()
      const override {
    // mean_depth averages the integral over bucket width and absorbed
    // file count — with one cell's repetitions in a directory that is
    // the ensemble-mean depth over the bucket's time window.
    std::vector<std::vector<util::Value>> out;
    const double denom =
        static_cast<double>(bucket_ns_) * std::max(files_, 1);
    for (const auto& [station, buckets] : acc_) {
      for (const auto& [bucket, depth_ns] : buckets) {
        out.push_back(
            {station_value(station), static_cast<double>(bucket),
             static_cast<double>(bucket) * static_cast<double>(bucket_ns_) /
                 1e6,
             static_cast<double>(depth_ns) / 1e6,
             static_cast<double>(depth_ns) / denom});
      }
    }
    return out;
  }

 private:
  std::int64_t bucket_ns_;
  std::map<std::uint16_t, std::map<std::int64_t, std::int64_t>> acc_;
  int files_ = 0;
};

}  // namespace

std::unique_ptr<Aggregation> make_aggregation(std::string_view spec) {
  const std::size_t colon = spec.find(':');
  const std::string_view name =
      colon == std::string_view::npos ? spec : spec.substr(0, colon);
  const util::Options opts = util::Options::parse(
      colon == std::string_view::npos ? std::string_view{}
                                      : spec.substr(colon + 1));

  std::unique_ptr<Aggregation> agg;
  if (name == "counts") {
    agg = std::make_unique<CountsAgg>();
  } else if (name == "delay") {
    agg = std::make_unique<DelayAgg>(opts);
  } else if (name == "delay-hist") {
    agg = std::make_unique<DelayHistAgg>(opts);
  } else if (name == "airtime") {
    agg = std::make_unique<AirtimeAgg>();
  } else if (name == "collisions") {
    agg = std::make_unique<CollisionsAgg>();
  } else if (name == "qdepth") {
    agg = std::make_unique<QdepthAgg>(opts);
  } else {
    std::string known;
    for (const std::string& line : aggregation_catalog()) {
      known += "\n  " + line;
    }
    throw util::PreconditionError("unknown aggregation `" +
                                  std::string(name) + "`; available:" +
                                  known);
  }
  opts.require_consumed("aggregation `" + std::string(name) + "`");
  return agg;
}

std::vector<std::string> aggregation_catalog() {
  return {
      "counts      per-station, per-kind event counts (works with "
      "--where)",
      "delay       per-cell transient stats, byte-identical to the "
      "live campaign (flow, ks_prefix, steady_tail, tol)",
      "delay-hist  access-delay histograms (by=position|station, flow, "
      "lo_ms, hi_ms, bins)",
      "airtime     per-station channel-occupation time and share",
      "collisions  pairwise collision-involvement matrix",
      "qdepth      per-station time-weighted queue-depth timeline "
      "(bucket_ms)",
  };
}

}  // namespace csmabw::trace::query
