#include "trace/query/engine.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace csmabw::trace::query {

namespace {

/// Default page-range size of a page-granular work unit: ~4 MiB of
/// payload at the writer's 64 KiB page target — small enough to load-
/// balance a handful of files across a pool, large enough that unit
/// overhead is noise.  Fixed (not thread-derived) so the unit
/// decomposition, and with it the absorb order, never depends on the
/// worker count.
constexpr int kDefaultPagesPerUnit = 64;

struct Unit {
  int file = 0;
  std::size_t first_page = 0;
  std::size_t page_count = 0;
};

struct UnitResult {
  std::unique_ptr<AggPartial> partial;
  ScanStats stats;
  std::int64_t wall_ns = 0;  ///< unit scan wall time (0 when obs off)
};

}  // namespace

ScanStats run_query(const std::vector<TraceFile>& files,
                    const QueryPredicate& pred, Aggregation& agg,
                    const exp::Runner& runner, const QueryOptions& opts) {
  agg.validate(pred);

  obs::Counter pages_decoded;
  obs::Counter pages_skipped;
  obs::Counter events_decoded;
  obs::Counter events_matched;
  obs::Histogram unit_wall;
  if (opts.metrics != nullptr) {
    pages_decoded = opts.metrics->counter("query.pages.decoded");
    pages_skipped = opts.metrics->counter("query.pages.skipped");
    events_decoded = opts.metrics->counter("query.events.decoded");
    events_matched = opts.metrics->counter("query.events.matched");
    unit_wall = opts.metrics->histogram("query.unit.wall_ns",
                                        obs::Determinism::kWallTime);
  }
  const bool timing =
      unit_wall.bound() ||
      (opts.profiler != nullptr && opts.profiler->enabled());

  // Open (map + index pages) every file first, in parallel: opening
  // touches only headers, and holding all maps costs address space, not
  // memory.
  const int n_files = static_cast<int>(files.size());
  std::vector<MappedTrace> traces = runner.map(n_files, [&](int i) {
    obs::ScopedSpan span(opts.profiler, "query.open");
    span.arg("file", i);
    return MappedTrace(files[static_cast<std::size_t>(i)].path);
  });

  const int per_unit = agg.whole_file()
                           ? 0
                           : (opts.pages_per_unit > 0 ? opts.pages_per_unit
                                                      : kDefaultPagesPerUnit);
  std::vector<Unit> units;
  for (int f = 0; f < n_files; ++f) {
    const std::size_t pages = traces[static_cast<std::size_t>(f)]
                                  .pages()
                                  .size();
    if (per_unit == 0) {
      units.push_back({f, 0, pages});
      continue;
    }
    for (std::size_t first = 0; first < pages;
         first += static_cast<std::size_t>(per_unit)) {
      units.push_back({f, first,
                       std::min(pages - first,
                                static_cast<std::size_t>(per_unit))});
    }
    if (pages == 0) {
      units.push_back({f, 0, 0});  // keep one partial per file anyway
    }
  }

  std::vector<UnitResult> results =
      runner.map(static_cast<int>(units.size()), [&](int u) {
        const Unit& unit = units[static_cast<std::size_t>(u)];
        const TraceFile& file = files[static_cast<std::size_t>(unit.file)];
        obs::ScopedSpan span(opts.profiler, "query.unit");
        span.arg("file", unit.file);
        span.arg("pages", static_cast<std::int64_t>(unit.page_count));
        const std::int64_t unit_start = timing ? obs::now_ns() : 0;
        FileContext ctx;
        ctx.file_index = unit.file;
        ctx.path = file.path;
        ctx.meta = file.meta;
        UnitResult r;
        r.partial = agg.make_partial(ctx);
        r.partial->set_context(std::move(ctx));
        scan_pages(traces[static_cast<std::size_t>(unit.file)],
                   unit.first_page, unit.page_count, pred, opts.pushdown,
                   &r.stats,
                   [&](const TraceEvent& e) { r.partial->on_event(e); });
        if (timing) {
          r.wall_ns = obs::now_ns() - unit_start;
          unit_wall.observe(r.wall_ns);
        }
        return r;
      });

  if (opts.file_stats != nullptr) {
    opts.file_stats->assign(static_cast<std::size_t>(n_files),
                            FileScanStats{});
  }
  ScanStats total;
  total.files = files.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    UnitResult& r = results[i];
    total.pages += r.stats.pages;
    total.pages_skipped += r.stats.pages_skipped;
    total.events_decoded += r.stats.events_decoded;
    total.events_matched += r.stats.events_matched;
    if (opts.file_stats != nullptr) {
      FileScanStats& fs =
          (*opts.file_stats)[static_cast<std::size_t>(units[i].file)];
      fs.pages += r.stats.pages;
      fs.pages_skipped += r.stats.pages_skipped;
      fs.events_decoded += r.stats.events_decoded;
      fs.events_matched += r.stats.events_matched;
      fs.wall_ns += r.wall_ns;
    }
    agg.absorb(*r.partial);
  }
  agg.finish();
  pages_decoded.add(
      static_cast<std::int64_t>(total.pages - total.pages_skipped));
  pages_skipped.add(static_cast<std::int64_t>(total.pages_skipped));
  events_decoded.add(static_cast<std::int64_t>(total.events_decoded));
  events_matched.add(static_cast<std::int64_t>(total.events_matched));
  return total;
}

}  // namespace csmabw::trace::query
