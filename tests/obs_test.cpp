// Tests of the runtime observability layer: histogram bucket geometry,
// per-thread shard merge determinism, span nesting + Perfetto JSON
// export, the run-report schema, and the Progress compute-clock ETA.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "exp/progress.hpp"
#include "exp/runner.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "util/require.hpp"

namespace csmabw::obs {
namespace {

// ------------------------------------------------------------ histogram

TEST(HistogramData, BucketOfBoundaries) {
  // Bucket 0 is the "<= 0" bucket; positive samples land in bucket
  // bit_width(v), i.e. bucket b holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(HistogramData::bucket_of(std::numeric_limits<std::int64_t>::min()),
            0);
  EXPECT_EQ(HistogramData::bucket_of(-1), 0);
  EXPECT_EQ(HistogramData::bucket_of(0), 0);
  EXPECT_EQ(HistogramData::bucket_of(1), 1);
  EXPECT_EQ(HistogramData::bucket_of(2), 2);
  EXPECT_EQ(HistogramData::bucket_of(3), 2);
  EXPECT_EQ(HistogramData::bucket_of(4), 3);
  EXPECT_EQ(HistogramData::bucket_of(7), 3);
  EXPECT_EQ(HistogramData::bucket_of(8), 4);
  EXPECT_EQ(HistogramData::bucket_of(1023), 10);
  EXPECT_EQ(HistogramData::bucket_of(1024), 11);
  EXPECT_EQ(HistogramData::bucket_of(std::numeric_limits<std::int64_t>::max()),
            63);
}

TEST(HistogramData, BucketBoundsRoundTrip) {
  // Every positive bucket's own bounds map back into it, and buckets
  // tile the positive range with no gap: upper(b) + 1 == lower(b + 1).
  EXPECT_EQ(HistogramData::lower_bound(0), 0);
  EXPECT_EQ(HistogramData::upper_bound(0), 0);
  for (int b = 1; b < HistogramData::kBuckets; ++b) {
    const std::int64_t lo = HistogramData::lower_bound(b);
    const std::int64_t hi = HistogramData::upper_bound(b);
    EXPECT_EQ(HistogramData::bucket_of(lo), b) << "bucket " << b;
    EXPECT_EQ(HistogramData::bucket_of(hi), b) << "bucket " << b;
    EXPECT_LE(lo, hi) << "bucket " << b;
    if (b + 1 < HistogramData::kBuckets) {
      EXPECT_EQ(hi + 1, HistogramData::lower_bound(b + 1)) << "bucket " << b;
    } else {
      EXPECT_EQ(hi, std::numeric_limits<std::int64_t>::max());
    }
  }
}

TEST(HistogramData, ObserveAndMerge) {
  HistogramData a;
  a.observe(-3);
  a.observe(5);
  a.observe(1000);
  EXPECT_EQ(a.count, 3);
  EXPECT_EQ(a.sum, 1002);
  EXPECT_EQ(a.min, -3);
  EXPECT_EQ(a.max, 1000);
  EXPECT_EQ(a.buckets[0], 1);
  EXPECT_EQ(a.buckets[3], 1);   // 5 -> [4, 7]
  EXPECT_EQ(a.buckets[10], 1);  // 1000 -> [512, 1023]

  HistogramData b;
  b.observe(6);
  b.merge(a);
  EXPECT_EQ(b.count, 4);
  EXPECT_EQ(b.sum, 1008);
  EXPECT_EQ(b.min, -3);
  EXPECT_EQ(b.max, 1000);
  EXPECT_EQ(b.buckets[3], 2);

  HistogramData empty;
  b.merge(empty);  // merging an empty histogram must not move min/max
  EXPECT_EQ(b.count, 4);
  EXPECT_EQ(b.min, -3);
  EXPECT_EQ(b.max, 1000);
}

// ------------------------------------------------------------- registry

TEST(Registry, DisabledReturnsUnboundHandles) {
  Registry reg(/*enabled=*/false);
  const Counter c = reg.counter("x.y.z");
  const Gauge g = reg.gauge("x.y.g");
  const Histogram h = reg.histogram("x.y.h");
  EXPECT_FALSE(c.bound());
  EXPECT_FALSE(g.bound());
  EXPECT_FALSE(h.bound());
  c.add(5);  // all no-ops
  g.sample(7);
  h.observe(9);
  EXPECT_TRUE(reg.merged().empty());
  EXPECT_EQ(reg.value("x.y.z"), 0);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg(true);
  (void)reg.counter("serve.cache.hit");
  EXPECT_THROW((void)reg.gauge("serve.cache.hit"), util::PreconditionError);
  EXPECT_THROW((void)reg.counter("serve.cache.hit", Determinism::kWallTime),
               util::PreconditionError);
}

TEST(Registry, MergedSnapshotSortedByName) {
  Registry reg(true);
  reg.counter("b.second.metric").add(2);
  reg.counter("a.first.metric").add(1);
  reg.gauge("c.third.metric").sample(3);
  const std::vector<MergedMetric> merged = reg.merged();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].name, "a.first.metric");
  EXPECT_EQ(merged[1].name, "b.second.metric");
  EXPECT_EQ(merged[2].name, "c.third.metric");
  EXPECT_EQ(reg.value("b.second.metric"), 2);
}

/// Runs the same synthetic workload over `threads` workers and returns
/// the merged snapshot.  Counter sums, gauge maxima and histogram
/// buckets are all commutative, so the snapshot must not depend on how
/// the runner sharded the work.
std::vector<MergedMetric> sharded_snapshot(int threads) {
  Registry reg(true);
  const Counter jobs = reg.counter("test.jobs.done");
  const Gauge high = reg.gauge("test.jobs.high_water");
  const Histogram sizes = reg.histogram("test.jobs.size");
  exp::RunnerOptions opts;
  opts.threads = threads;
  const exp::Runner runner(opts);
  (void)runner.map(257, [&](int i) {
    jobs.add(1);
    high.sample(i);
    sizes.observe(static_cast<std::int64_t>(i) * 37 % 4096);
    return 0;
  });
  return reg.merged();
}

TEST(Registry, ShardMergeDeterministicAcrossThreadCounts) {
  const std::vector<MergedMetric> base = sharded_snapshot(1);
  ASSERT_EQ(base.size(), 3u);
  EXPECT_EQ(base[0].value, 257);       // test.jobs.done
  EXPECT_EQ(base[1].value, 256);       // test.jobs.high_water (max i)
  EXPECT_EQ(base[2].hist.count, 257);  // test.jobs.size
  for (const int threads : {2, 4, 7}) {
    const std::vector<MergedMetric> snap = sharded_snapshot(threads);
    ASSERT_EQ(snap.size(), base.size()) << threads << " threads";
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(snap[i].name, base[i].name);
      EXPECT_EQ(snap[i].kind, base[i].kind);
      EXPECT_EQ(snap[i].value, base[i].value) << snap[i].name;
      EXPECT_EQ(snap[i].hist.count, base[i].hist.count) << snap[i].name;
      EXPECT_EQ(snap[i].hist.sum, base[i].hist.sum) << snap[i].name;
      EXPECT_EQ(snap[i].hist.buckets, base[i].hist.buckets) << snap[i].name;
    }
  }
}

TEST(Registry, ScopedTimerObservesElapsed) {
  Registry reg(true);
  const Histogram h = reg.histogram("test.timer.wall_ns",
                                    Determinism::kWallTime);
  { ScopedTimer timer(h); }
  const HistogramData data = reg.histogram_data("test.timer.wall_ns");
  EXPECT_EQ(data.count, 1);
  EXPECT_GE(data.sum, 0);
}

// ---------------------------------------------------------------- spans

TEST(Profiler, RecordsNestedSpansWithDepth) {
  Profiler prof(true);
  {
    ScopedSpan outer(&prof, "outer.span");
    outer.arg("cell", 3);
    {
      ScopedSpan inner(&prof, "inner.span");
      inner.arg("rep", 7);
      inner.arg("events", 99);
      inner.arg("extra", 1);
      inner.arg("dropped", 2);  // beyond the 3-arg cap: ignored
    }
  }
  const std::vector<SpanEvent> spans = prof.sorted_spans();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start time: outer opened first.
  EXPECT_EQ(spans[0].name, "outer.span");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[0].n_args, 1);
  EXPECT_EQ(spans[1].name, "inner.span");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].n_args, 3);
  EXPECT_EQ(spans[1].args[1].second, 99);
  EXPECT_STREQ(spans[1].args[2].first, "extra");
  // Containment: the inner span's window lies inside the outer's.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].start_ns + spans[1].dur_ns,
            spans[0].start_ns + spans[0].dur_ns);
  EXPECT_EQ(prof.recorded(), 2u);
  EXPECT_EQ(prof.dropped(), 0u);
  EXPECT_EQ(prof.threads_observed(), 1u);
}

TEST(Profiler, DisabledSpansAreNoOps) {
  Profiler prof(false);
  {
    ScopedSpan a(&prof, "a");
    ScopedSpan b(nullptr, "b");  // null profiler: same contract
    a.arg("k", 1);
    b.arg("k", 1);
  }
  EXPECT_EQ(prof.recorded(), 0u);
  EXPECT_TRUE(prof.sorted_spans().empty());
}

TEST(Profiler, PerThreadCapCountsDropped) {
  Profiler prof(true, /*max_spans_per_thread=*/3);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span(&prof, "capped");
  }
  EXPECT_EQ(prof.recorded(), 3u);
  EXPECT_EQ(prof.dropped(), 7u);
}

TEST(Profiler, ChromeTraceEscapesNamesAndBalances) {
  Profiler prof(true);
  { ScopedSpan span(&prof, "weird \"name\" with \\slash\\"); }
  std::ostringstream out;
  prof.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("weird \\\"name\\\" with \\\\slash\\\\"),
            std::string::npos);
  // Cheap structural check: braces/brackets balance and the raw quote
  // count is even (every string opened is closed).
  int braces = 0;
  int brackets = 0;
  int quotes = 0;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '\\') {
      ++i;  // skip the escaped character
      continue;
    }
    braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
    brackets += c == '[' ? 1 : (c == ']' ? -1 : 0);
    quotes += c == '"' ? 1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(quotes % 2, 0);
}

// --------------------------------------------------------------- report

TEST(RunReport, SchemaAndSections) {
  Registry reg(true);
  reg.counter("exp.reps.computed").add(12);
  reg.histogram("exp.rep.wall_ns", Determinism::kWallTime).observe(1000);
  std::vector<CellObs> cells;
  cells.push_back({/*cell=*/0, /*wall_ns=*/500, /*computed=*/4,
                   /*cached=*/0, /*sim_events=*/100});
  cells.push_back({/*cell=*/1, /*wall_ns=*/900, /*computed=*/8,
                   /*cached=*/2, /*sim_events=*/300});

  RunReportOptions opts;
  opts.tool = "obs_test";
  opts.threads = 2;
  opts.wall_ns = 2000;
  opts.slowest_k = 1;
  std::ostringstream out;
  write_run_report(out, reg, cells, opts);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"schema\":\"csmabw-run-report\""), std::string::npos);
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tool\":\"obs_test\""), std::string::npos);
  // The stable counter lands in the deterministic section, before the
  // nondeterministic block; the wall-time histogram after it.
  const std::size_t det = json.find("\"deterministic\":{");
  const std::size_t nondet = json.find("\"nondeterministic\":{");
  ASSERT_NE(det, std::string::npos);
  ASSERT_NE(nondet, std::string::npos);
  const std::size_t computed = json.find("\"exp.reps.computed\":12");
  const std::size_t wall = json.find("\"exp.rep.wall_ns\":{");
  ASSERT_NE(computed, std::string::npos);
  ASSERT_NE(wall, std::string::npos);
  EXPECT_TRUE(det < computed && computed < nondet);
  EXPECT_TRUE(nondet < wall);
  // Cells and the slowest-K ranking (k=1: cell 1 at 900 ns wins).
  EXPECT_NE(json.find("{\"cell\":1,\"wall_ns\":900,\"computed\":8,"
                      "\"cached\":2,\"sim_events\":300"),
            std::string::npos);
  EXPECT_NE(json.find("\"slowest_cells\":[{\"cell\":1,\"wall_ns\":900}]"),
            std::string::npos);
  EXPECT_NE(json.find("\"utilization\":{\"busy_ns\":1000,\"workers\":2"),
            std::string::npos);
}

TEST(RunReport, DeterministicBytesAcrossThreadCounts) {
  // The whole deterministic prefix of the report (everything before the
  // "nondeterministic" key) must be byte-identical for any worker
  // count.  Wall clocks are zeroed via the options; the registry holds
  // only stable metrics here.
  const auto report_for = [](int threads) {
    Registry reg(true);
    const Counter c = reg.counter("test.work.done");
    const Histogram h = reg.histogram("test.work.size");
    exp::RunnerOptions ropts;
    ropts.threads = threads;
    const exp::Runner runner(ropts);
    (void)runner.map(100, [&](int i) {
      c.add(1);
      h.observe(i);
      return 0;
    });
    RunReportOptions opts;
    opts.tool = "obs_test";
    opts.threads = 0;  // normalized: thread count is reporting-only
    opts.wall_ns = 0;
    std::ostringstream out;
    write_run_report(out, reg, {}, opts);
    return out.str();
  };
  EXPECT_EQ(report_for(1), report_for(4));
}

TEST(CellObs, MergeSumsFields) {
  CellObs a{/*cell=*/2, /*wall_ns=*/10, /*computed=*/1, /*cached=*/2,
            /*sim_events=*/30};
  const CellObs b{/*cell=*/2, /*wall_ns=*/5, /*computed=*/3, /*cached=*/1,
                  /*sim_events=*/20};
  a.merge(b);
  EXPECT_EQ(a.wall_ns, 15);
  EXPECT_EQ(a.computed, 4);
  EXPECT_EQ(a.cached, 3);
  EXPECT_EQ(a.sim_events, 50);
}

// ------------------------------------------------------------- progress

TEST(Progress, EtaNeedsAComputedTick) {
  exp::Progress progress(10, "test", /*enabled=*/false);
  EXPECT_LT(progress.eta_seconds(), 0.0);  // nothing computed yet
  progress.tick_cached(4);
  EXPECT_LT(progress.eta_seconds(), 0.0);  // cached ticks alone: no rate
  progress.tick(1);
  EXPECT_GE(progress.eta_seconds(), 0.0);
  progress.tick(5);  // done == total
  EXPECT_LT(progress.eta_seconds(), 0.0);
}

TEST(Progress, CachedPrefixDoesNotInflateEta) {
  // A re-run serves a large cached prefix after some startup
  // delay.  The classic estimate would divide that startup elapsed over
  // the computed units; the compute clock starts at the first computed
  // tick instead, so the ETA stays proportional to the compute rate.
  exp::Progress progress(1000, "test", /*enabled=*/false);
  const std::int64_t t0 = obs::now_ns();
  while (obs::now_ns() - t0 < 20'000'000) {
    // ~20 ms of "startup": building cells, opening the cache.
  }
  progress.tick_cached(990);
  progress.tick(9);  // nine computed units, essentially instantaneous
  // Remaining unit at the observed compute rate: microseconds, not the
  // 20 ms-derived estimate (~2.2 ms/unit) the wall clock would give.
  const double eta = progress.eta_seconds();
  ASSERT_GE(eta, 0.0);
  EXPECT_LT(eta, 0.002);
  EXPECT_EQ(progress.done(), 999);
  EXPECT_EQ(progress.cached(), 990);
}

}  // namespace
}  // namespace csmabw::obs
