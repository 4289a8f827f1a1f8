#pragma once

// Parallel out-of-core query engine over `.cctrace` fleets.
//
// run_query maps every trace read-only (MappedTrace), splits the fleet
// into (file, page-range) work units, scans the units across
// exp::Runner's worker pool — skipping pages whose skip-index summary
// proves the predicate cannot match — and hands each unit's completed
// AggPartial back in deterministic unit order (file order, pages
// ascending) for absorption.  Unit decomposition is independent of the
// thread count and absorption is ordered, so query output is
// bit-identical for any number of workers.

#include <cstdint>
#include <vector>

#include "exp/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "trace/query/agg.hpp"
#include "trace/query/mapped.hpp"
#include "trace/query/predicate.hpp"
#include "trace/replay.hpp"  // TraceFile

namespace csmabw::trace::query {

/// Per-file scan accounting (`--stats`): what each trace contributed to
/// the query and how long its units took.  wall_ns sums the file's
/// unit scan times (units of one file may run concurrently, so it can
/// exceed the query's wall clock); it stays 0 when observability is
/// off.
struct FileScanStats {
  std::size_t pages = 0;
  std::size_t pages_skipped = 0;
  std::uint64_t events_decoded = 0;
  std::uint64_t events_matched = 0;
  std::int64_t wall_ns = 0;
};

struct QueryOptions {
  /// Skip pages whose summary refutes the predicate.  Off decodes
  /// everything; results are identical either way (summaries are
  /// conservative), only the work changes.
  bool pushdown = true;
  /// Pages per work unit for page-granular aggregations (0 = 64, about
  /// 4 MiB of payload).  Whole-file aggregations always run one unit
  /// per file.
  int pages_per_unit = 0;
  /// Scan accounting under `query.*` (pages decoded/skipped, events);
  /// null = none.  Purely observational — query output is identical.
  obs::Registry* metrics = nullptr;
  /// Per-unit scan spans ("query.unit"); null = none.
  obs::Profiler* profiler = nullptr;
  /// When non-null, filled with per-file scan stats indexed like the
  /// query's `files` argument (wall_ns only with metrics/profiler on).
  std::vector<FileScanStats>* file_stats = nullptr;
};

/// What a query touched — the observability half of predicate pushdown.
struct ScanStats {
  std::size_t files = 0;
  std::size_t pages = 0;
  std::size_t pages_skipped = 0;      ///< refuted by summary, not decoded
  std::uint64_t events_decoded = 0;
  std::uint64_t events_matched = 0;
};

/// Scans pages [first_page, first_page + page_count) of one mapped
/// trace, invoking fn(const TraceEvent&) for every event matching
/// `pred`, in file order.  With `pushdown`, pages whose summary refutes
/// the predicate are skipped without touching their payload.  Counters
/// fold into `*stats`.  The shared scan kernel of run_query and
/// `trace_tool filter`.
template <typename Fn>
void scan_pages(const MappedTrace& trace, std::size_t first_page,
                std::size_t page_count, const QueryPredicate& pred,
                bool pushdown, ScanStats* stats, Fn&& fn) {
  const bool all = pred.match_all();
  for (std::size_t p = first_page; p < first_page + page_count; ++p) {
    ++stats->pages;
    const PageInfo& page = trace.pages()[p];
    if (pushdown && !all && !pred.may_match_page(page.summary)) {
      ++stats->pages_skipped;
      continue;
    }
    trace.scan_page(p, [&](const TraceEvent& e) {
      ++stats->events_decoded;
      if (all || pred.matches(e)) {
        ++stats->events_matched;
        fn(e);
      }
    });
  }
}

/// Runs `agg` over every event of `files` matching `pred`, using the
/// runner's worker pool, and returns what the scan touched.  Files must
/// be in the order the aggregation expects (list_traces order — cell,
/// then repetition).  Throws util::PreconditionError when the
/// aggregation rejects the predicate or a trace is corrupt.
ScanStats run_query(const std::vector<TraceFile>& files,
                    const QueryPredicate& pred, Aggregation& agg,
                    const exp::Runner& runner,
                    const QueryOptions& opts = {});

}  // namespace csmabw::trace::query
