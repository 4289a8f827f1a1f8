#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exp/collector.hpp"
#include "exp/engine.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "stats/rng.hpp"
#include "trace/query/agg.hpp"
#include "trace/query/engine.hpp"
#include "trace/query/mapped.hpp"
#include "trace/query/predicate.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "util/require.hpp"

namespace csmabw::trace {
namespace {

namespace fs = std::filesystem;

fs::path temp_file(const std::string& name) {
  return fs::temp_directory_path() / ("csmabw-trace-query-" + name);
}

/// Deterministic pseudo-random events covering every kind, a small
/// station set and a monotone time axis (as the simulator emits).
std::vector<TraceEvent> sample_events(int n, std::uint64_t seed = 42) {
  stats::Rng rng(seed);
  std::vector<TraceEvent> events;
  std::int64_t t = 0;
  for (int i = 0; i < n; ++i) {
    TraceEvent e;
    t += rng.uniform_int(0, 2000000);
    e.time = TimeNs::ns(t);
    e.kind = static_cast<EventKind>(rng.uniform_int(1, kEventKindCount));
    e.station = static_cast<std::uint16_t>(rng.uniform_int(0, 5));
    e.packet = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    e.aux = TimeNs::ns(t + rng.uniform_int(-1000000, 1000000));
    e.flow = rng.uniform_int(-3, 1200);
    e.seq = rng.uniform_int(0, 100000);
    e.value = rng.uniform_int(-2, 1500);
    events.push_back(e);
  }
  return events;
}

/// Writes `events` as a trace of many small pages and returns the path.
fs::path write_trace(const std::string& name,
                     const std::vector<TraceEvent>& events,
                     std::size_t page_bytes = 256, TraceMeta meta = {}) {
  const fs::path path = temp_file(name);
  TraceWriter writer(path.string(), meta, page_bytes);
  for (const TraceEvent& e : events) {
    writer.on_event(e);
  }
  writer.close();
  return path;
}

std::vector<TraceEvent> scan_all(const MappedTrace& trace) {
  std::vector<TraceEvent> out;
  trace.scan([&](const TraceEvent& e) { out.push_back(e); });
  return out;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

format::PageSummary summary_of(const std::vector<TraceEvent>& events) {
  format::PageSummary s;
  for (const TraceEvent& e : events) {
    s.add(static_cast<std::uint8_t>(e.kind), e.station, e.time.count());
  }
  return s;
}

// ----------------------------------------------------------- mmap scan

TEST(TraceQuery, MappedScanMatchesBufferedFallback) {
  const std::vector<TraceEvent> events = sample_events(3000);
  TraceMeta meta;
  meta.cell = 3;
  meta.label = "query-roundtrip";
  const fs::path path = write_trace("mapped.cctrace", events, 256, meta);

  const MappedTrace trace(path.string());
  EXPECT_EQ(trace.meta(), meta);
  EXPECT_TRUE(trace.mapped());
  EXPECT_GT(trace.pages().size(), 50u);
  EXPECT_EQ(trace.events(), events.size());
  EXPECT_EQ(scan_all(trace), events);

  // The buffered fallback decodes the identical stream.
  MappedTraceOptions no_mmap;
  no_mmap.use_mmap = false;
  const MappedTrace buffered(path.string(), no_mmap);
  EXPECT_FALSE(buffered.mapped());
  EXPECT_EQ(buffered.meta(), meta);
  ASSERT_EQ(buffered.pages().size(), trace.pages().size());
  for (std::size_t p = 0; p < trace.pages().size(); ++p) {
    EXPECT_EQ(buffered.pages()[p].summary, trace.pages()[p].summary);
  }
  EXPECT_EQ(scan_all(buffered), events);
  fs::remove(path);
}

TEST(TraceQuery, EmbeddedSummariesDescribeTheirPages) {
  const fs::path path =
      write_trace("summaries.cctrace", sample_events(2000));
  const MappedTrace trace(path.string());
  ASSERT_GT(trace.pages().size(), 10u);
  for (std::size_t p = 0; p < trace.pages().size(); ++p) {
    EXPECT_EQ(trace.pages()[p].summary, summary_of(trace.decode_page(p)))
        << "page " << p;
  }
  fs::remove(path);
}

// ------------------------------------------------------ format version

TEST(TraceQuery, V1FilesAskToBeReRecorded) {
  const fs::path v2 = write_trace("v2-src.cctrace", sample_events(300));
  std::string bytes = read_file(v2);
  bytes[4] = 1;  // version field, little-endian low byte
  const fs::path path = temp_file("v1.cctrace");
  write_file(path, bytes);
  try {
    const MappedTrace trace(path.string());
    FAIL() << "expected a format-version error";
  } catch (const util::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path.string()), std::string::npos) << what;
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
    EXPECT_NE(what.find("re-record"), std::string::npos) << what;
  }
  fs::remove(v2);
  fs::remove(path);
}

// ------------------------------------------------------------ pushdown

TEST(TraceQuery, PushdownNeverChangesResults) {
  const std::vector<TraceEvent> events = sample_events(4000);
  const fs::path path = write_trace("pushdown.cctrace", events);
  const MappedTrace trace(path.string());
  ASSERT_GT(trace.pages().size(), 50u);
  const std::int64_t span = events.back().time.count();

  stats::Rng rng(2024);
  std::size_t total_skipped = 0;
  for (int round = 0; round < 60; ++round) {
    query::QueryPredicate pred;
    pred.kinds = static_cast<std::uint16_t>(
        rng.uniform_int(1, query::kAllKindsMask));
    const int a = rng.uniform_int(0, 6);
    const int b = rng.uniform_int(0, 6);
    pred.station_min = static_cast<std::uint16_t>(std::min(a, b));
    pred.station_max = static_cast<std::uint16_t>(std::max(a, b));
    const int span_ms = static_cast<int>(span / 1000000);
    const std::int64_t t1 =
        static_cast<std::int64_t>(rng.uniform_int(0, span_ms)) * 1000000;
    const std::int64_t t2 =
        static_cast<std::int64_t>(rng.uniform_int(0, span_ms)) * 1000000;
    pred.time_min_ns = std::min(t1, t2);
    pred.time_max_ns = std::max(t1, t2);

    std::vector<TraceEvent> pushed;
    std::vector<TraceEvent> full;
    query::ScanStats ps;
    query::ScanStats fs_;
    query::scan_pages(trace, 0, trace.pages().size(), pred, true, &ps,
                      [&](const TraceEvent& e) { pushed.push_back(e); });
    query::scan_pages(trace, 0, trace.pages().size(), pred, false, &fs_,
                      [&](const TraceEvent& e) { full.push_back(e); });
    // Element identity, not just equal counts: pushdown may only skip
    // pages the summary PROVES empty for this predicate.
    EXPECT_EQ(pushed, full) << "predicate " << pred.describe();
    EXPECT_EQ(ps.events_matched, fs_.events_matched);
    EXPECT_EQ(fs_.pages_skipped, 0u);
    EXPECT_EQ(fs_.events_decoded, events.size());
    total_skipped += ps.pages_skipped;
  }
  // The sweep must actually exercise skipping, or the test proves
  // nothing.
  EXPECT_GT(total_skipped, 0u);
  fs::remove(path);
}

// ----------------------------------------------------------- predicate

TEST(TraceQuery, PredicateParsesTheWhereGrammar) {
  const query::QueryPredicate all = query::QueryPredicate::parse("");
  EXPECT_TRUE(all.match_all());
  EXPECT_EQ(all.describe(), "(all)");

  const query::QueryPredicate p = query::QueryPredicate::parse(
      "kinds=success,drop;station=0..3;time_ms=..250");
  EXPECT_EQ(p.kinds,
            (1u << kind_index(EventKind::kSuccess)) |
                (1u << kind_index(EventKind::kDrop)));
  EXPECT_EQ(p.station_min, 0);
  EXPECT_EQ(p.station_max, 3);
  EXPECT_EQ(p.time_min_ns, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(p.time_max_ns, 250000000);

  // Exact station, open-ended ranges, ns units.
  const query::QueryPredicate q =
      query::QueryPredicate::parse("station=4;time_ns=1000..");
  EXPECT_EQ(q.station_min, 4);
  EXPECT_EQ(q.station_max, 4);
  EXPECT_EQ(q.time_min_ns, 1000);

  // describe() of a constrained predicate re-parses to itself.
  EXPECT_EQ(query::QueryPredicate::parse(p.describe()), p);
  EXPECT_EQ(query::QueryPredicate::parse(q.describe()), q);

  EXPECT_THROW((void)query::QueryPredicate::parse("frobnicate=1"),
               util::PreconditionError);
  EXPECT_THROW((void)query::QueryPredicate::parse("kinds=no_such_kind"),
               util::PreconditionError);
  EXPECT_THROW((void)query::QueryPredicate::parse("station=.."),
               util::PreconditionError);
  EXPECT_THROW((void)query::QueryPredicate::parse("station=9..2"),
               util::PreconditionError);
  EXPECT_THROW((void)query::QueryPredicate::parse("time_ms=abc"),
               util::PreconditionError);
  EXPECT_THROW((void)query::QueryPredicate::parse("station"),
               util::PreconditionError);
}

// ---------------------------------------------------------- corruption

TEST(TraceQuery, CorruptionErrorsNamePathAndByteOffset) {
  const fs::path good = write_trace("corrupt-src.cctrace",
                                    sample_events(600));
  const std::string bytes = read_file(good);
  const std::uint32_t header_bytes =
      format::get_u32(reinterpret_cast<const unsigned char*>(bytes.data()) +
                      8);

  const auto expect_throw_naming = [&](const std::string& name,
                                       const std::string& mutated,
                                       std::uint64_t offset) {
    const fs::path path = temp_file(name);
    write_file(path, mutated);
    const std::string at = "@ byte " + std::to_string(offset);
    // The failure names the file and the offset of the failing page.
    try {
      const MappedTrace trace(path.string());
      (void)scan_all(trace);
      FAIL() << name << ": MappedTrace accepted corrupt input";
    } catch (const util::PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path.string()), std::string::npos) << what;
      EXPECT_NE(what.find(at), std::string::npos) << what;
    }
    fs::remove(path);
  };

  {
    // Flip the first page's summary station range to min > max.
    std::string mutated = bytes;
    const std::size_t st = header_bytes + format::kPageSummaryOffset + 2;
    mutated[st] = '\xff';      // min_station = 0xffff
    mutated[st + 1] = '\xff';
    mutated[st + 2] = '\0';    // max_station = 0
    mutated[st + 3] = '\0';
    expect_throw_naming("corrupt-summary.cctrace", mutated, header_bytes);
  }
  {
    // Truncate inside the first page's summary.
    const std::string mutated =
        bytes.substr(0, header_bytes + format::kPageSummaryOffset + 7);
    expect_throw_naming("corrupt-truncated.cctrace", mutated, header_bytes);
  }
  {
    // Stomp the first page's magic.
    std::string mutated = bytes;
    mutated[header_bytes] = 'X';
    expect_throw_naming("corrupt-magic.cctrace", mutated, header_bytes);
  }
  fs::remove(good);
}

// -------------------------------------------------------- aggregations

std::vector<TraceFile> synthetic_fleet(int files, int events_per_file) {
  std::vector<TraceFile> out;
  for (int f = 0; f < files; ++f) {
    TraceMeta meta;
    meta.cell = 0;
    meta.repetition = f;
    const fs::path path = write_trace(
        "fleet-" + std::to_string(f) + ".cctrace",
        sample_events(events_per_file, /*seed=*/100 + f), 256, meta);
    out.push_back({path.string(), meta});
  }
  return out;
}

void remove_fleet(const std::vector<TraceFile>& files) {
  for (const TraceFile& f : files) {
    fs::remove(f.path);
  }
}

/// Result rows compare bit-exactly (doubles by value, labels by text).
void expect_rows_equal(const std::vector<std::vector<util::Value>>& a,
                       const std::vector<std::vector<util::Value>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size()) << "row " << r;
    for (std::size_t c = 0; c < a[r].size(); ++c) {
      ASSERT_EQ(a[r][c].is_number(), b[r][c].is_number())
          << "row " << r << " col " << c;
      if (a[r][c].is_number()) {
        EXPECT_EQ(a[r][c].number(), b[r][c].number())
            << "row " << r << " col " << c;
      } else {
        EXPECT_EQ(a[r][c].str(), b[r][c].str())
            << "row " << r << " col " << c;
      }
    }
  }
}

TEST(TraceQuery, AggregationsAreThreadCountInvariant) {
  const std::vector<TraceFile> files = synthetic_fleet(5, 1500);
  const query::QueryPredicate pred =
      query::QueryPredicate::parse("station=1..4;time_ms=0.5..");

  for (const char* spec : {"counts", "qdepth:bucket_ms=5", "airtime",
                           "collisions"}) {
    const query::QueryPredicate p =
        std::string(spec) == "counts" ? pred : query::QueryPredicate{};
    std::vector<std::vector<util::Value>> reference;
    query::ScanStats ref_stats;
    for (const int threads : {1, 4}) {
      exp::RunnerOptions ropts;
      ropts.threads = threads;
      const std::unique_ptr<query::Aggregation> agg =
          query::make_aggregation(spec);
      query::QueryOptions qopts;
      qopts.pages_per_unit = 7;  // force many units per file
      const query::ScanStats stats =
          query::run_query(files, p, *agg, exp::Runner(ropts), qopts);
      if (threads == 1) {
        reference = agg->rows();
        ref_stats = stats;
        // Random events almost never place two attempts on the same
        // slot boundary, so the collision matrix may be legitimately
        // empty here (its semantics are covered separately below).
        if (std::string(spec) != "collisions") {
          EXPECT_FALSE(reference.empty()) << spec;
        }
      } else {
        expect_rows_equal(agg->rows(), reference);
        EXPECT_EQ(stats.events_matched, ref_stats.events_matched) << spec;
        EXPECT_EQ(stats.pages_skipped, ref_stats.pages_skipped) << spec;
      }
    }
  }
  remove_fleet(files);
}

TEST(TraceQuery, AirtimeAndCollisionSemantics) {
  // A hand-built MAC episode: stations 1 and 2 collide at t=10 (the
  // occupation runs to t=18), then each retries alone and succeeds.
  const auto ev = [](EventKind kind, std::uint16_t station,
                     std::int64_t t_ms, std::int64_t aux_ms) {
    TraceEvent e;
    e.kind = kind;
    e.station = station;
    e.time = TimeNs::ns(t_ms * 1000000);
    e.aux = TimeNs::ns(aux_ms * 1000000);
    return e;
  };
  const std::vector<TraceEvent> events = {
      ev(EventKind::kTxAttempt, 1, 10, 10),
      ev(EventKind::kTxAttempt, 2, 10, 10),
      ev(EventKind::kCollision, kChannelStation, 10, 18),
      ev(EventKind::kTxAttempt, 1, 20, 20),
      ev(EventKind::kSuccess, 1, 25, 24),
      ev(EventKind::kTxAttempt, 2, 30, 30),
      ev(EventKind::kSuccess, 2, 36, 35),
  };
  const fs::path path = write_trace("semantics.cctrace", events);
  const std::vector<TraceFile> files = {{path.string(), TraceMeta{}}};
  const exp::Runner runner{exp::RunnerOptions{}};

  const std::unique_ptr<query::Aggregation> collisions =
      query::make_aggregation("collisions");
  (void)query::run_query(files, query::QueryPredicate{}, *collisions,
                         runner);
  const auto pair_rows = collisions->rows();
  ASSERT_EQ(pair_rows.size(), 1u);
  EXPECT_EQ(pair_rows[0][0].number(), 1);  // station_a
  EXPECT_EQ(pair_rows[0][1].number(), 2);  // station_b
  EXPECT_EQ(pair_rows[0][2].number(), 1);  // one shared collision

  const std::unique_ptr<query::Aggregation> airtime =
      query::make_aggregation("airtime");
  (void)query::run_query(files, query::QueryPredicate{}, *airtime, runner);
  const auto air_rows = airtime->rows();
  ASSERT_EQ(air_rows.size(), 2u);
  // Station 1: 8 ms collision occupation + 5 ms success exchange.
  EXPECT_EQ(air_rows[0][0].number(), 1);
  EXPECT_EQ(air_rows[0][1].number(), 2);   // attempts
  EXPECT_EQ(air_rows[0][4].number(), 1);   // collisions
  EXPECT_EQ(air_rows[0][5].number(), 13.0);  // busy_ms
  // Station 2: 8 ms collision occupation + 6 ms success exchange.
  EXPECT_EQ(air_rows[1][0].number(), 2);
  EXPECT_EQ(air_rows[1][5].number(), 14.0);
  fs::remove(path);
}

TEST(TraceQuery, ReconstructingAggregationsRejectFilteredStreams) {
  const query::QueryPredicate filtered =
      query::QueryPredicate::parse("kinds=success");
  for (const char* spec :
       {"delay", "delay-hist", "airtime", "collisions", "qdepth"}) {
    const std::unique_ptr<query::Aggregation> agg =
        query::make_aggregation(spec);
    EXPECT_THROW(agg->validate(filtered), util::PreconditionError) << spec;
    agg->validate(query::QueryPredicate{});  // match-all is fine
  }
}

TEST(TraceQuery, AggregationRegistryRejectsBadSpecs) {
  EXPECT_THROW((void)query::make_aggregation("no-such-agg"),
               util::PreconditionError);
  EXPECT_THROW((void)query::make_aggregation("counts:bogus_opt=1"),
               util::PreconditionError);
  EXPECT_THROW((void)query::make_aggregation("delay-hist:by=nonsense"),
               util::PreconditionError);
  // Replays fold in the engine's shards; no other size matches a live
  // campaign, so there is no option to pick one.
  EXPECT_THROW((void)query::make_aggregation("delay:shard=4"),
               util::PreconditionError);
  EXPECT_EQ(query::make_aggregation("delay:tol=0.2")->name(), "delay");
}

TEST(TraceQuery, DelayAggregationMatchesLiveCampaignBitIdentically) {
  const fs::path dir = fs::temp_directory_path() / "csmabw-trace-query-delay";
  fs::remove_all(dir);

  exp::SweepSpec spec;
  spec.scenarios = {"phy=dot11b_short;contenders=poisson:rate=4M"};
  spec.train_lengths = {30};
  spec.probe_mbps = {5.0};
  spec.repetitions = 70;  // two shards of the engine's default 64
  spec.campaign_seed = 11;
  spec.trace_dir = dir.string();
  const exp::Campaign campaign(spec);
  exp::TrainCampaignConfig tcfg;
  tcfg.ks_prefix = 1;
  ASSERT_GT(spec.repetitions, tcfg.shard_size);
  const std::vector<exp::TrainCellStats> live = exp::run_train_campaign(
      campaign, tcfg, exp::Runner(exp::RunnerOptions{}));

  const std::vector<TraceFile> files = list_traces(dir.string());
  ASSERT_EQ(files.size(), 70u);

  exp::RunnerOptions ropts;
  ropts.threads = 3;
  const std::unique_ptr<query::Aggregation> agg =
      query::make_aggregation("delay");
  (void)query::run_query(files, query::QueryPredicate{}, *agg,
                         exp::Runner(ropts));
  const std::vector<std::string> columns = agg->columns();
  EXPECT_EQ(std::vector<std::string>(columns.begin() + 1, columns.end()),
            exp::Collector::train_columns(0.1));
  const std::vector<std::vector<util::Value>> rows = agg->rows();
  ASSERT_EQ(rows.size(), 1u);
  const std::vector<util::Value>& row = rows.front();
  const std::vector<util::Value> expected = exp::Collector::train_metrics(
      live.front(), campaign.cells().front().train.size_bytes, 0.1);
  ASSERT_EQ(row.size(), expected.size() + 1);
  EXPECT_EQ(row[0].number(), 0);
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(row[k + 1].number(), expected[k].number()) << columns[k + 1];
  }

  fs::remove_all(dir);
}

}  // namespace
}  // namespace csmabw::trace
