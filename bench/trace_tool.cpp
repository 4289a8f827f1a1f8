// Offline companion of the event-trace subsystem: inspects recorded
// binary traces, recomputes the paper's transient statistics from them,
// and filters them — so one expensive campaign recording (made with
// `campaign_sweep --trace=DIR`) answers arbitrarily many later
// questions without re-running the simulator.
//
// Subcommands:
//   info         print a trace's header and per-kind event counts:
//                  trace_tool info --in=FILE
//   query        run a named aggregation over a fleet through the
//                columnar scan path (mmap, skip-index pushdown,
//                parallel page scan); `--agg=delay` recomputes the
//                per-cell campaign statistics (fig06 mean access delay,
//                fig08 KS, fig10 transient length), bit-identical to the
//                live campaign's metric columns:
//                  trace_tool query --dir=DIR [--agg=counts[:opts]]
//                    [--where=kinds=success;station=0..3;time_ms=..250]
//                    [--threads=N] [--csv=PATH] [--no-pushdown]
//                    [--stats] [--metrics-out=FILE] [--prof=FILE]
//                `--stats` prints per-file scan accounting (pages
//                skipped vs decoded, events, wall time, effective
//                events/s) to stderr; `--metrics-out` / `--prof` write
//                the run-report JSON / Perfetto trace.
//   filter       copy a trace keeping only selected events (note that a
//                kind-filtered trace may no longer replay-reconstruct):
//                  trace_tool filter --in=A --out=B [--station=N]
//                    [--flow=F] [--kinds=enqueue,success,...]
//                    [--where=...]
//
// Every error (bad flags, a missing directory, a corrupt trace or one
// of an older format version) prints one `trace_tool: error: ...` line
// to stderr and exits 2.
#include <array>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/collector.hpp"
#include "trace/event.hpp"
#include "trace/query/agg.hpp"
#include "trace/query/engine.hpp"
#include "trace/query/mapped.hpp"
#include "trace/query/predicate.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "util/require.hpp"

using namespace csmabw;

namespace {

int usage(std::ostream& out, int code) {
  out << "usage: trace_tool <info|query|filter> [options]\n"
         "  info         --in=FILE\n"
         "  query        --dir=DIR | --in=FILE [--agg=NAME[:k=v,...]]\n"
         "               [--where=CLAUSES] [--threads=N] [--csv=PATH]\n"
         "               [--jsonl=PATH] [--no-pushdown]\n"
         "               [--pages-per-unit=N] [--stats]\n"
         "               [--metrics-out=FILE] [--prof=FILE]\n"
         "  filter       --in=FILE --out=FILE [--station=N] [--flow=F]\n"
         "               [--kinds=enqueue,success,...] [--where=CLAUSES]\n"
         "               [--no-pushdown]\n"
         "aggregations (--agg):\n";
  for (const std::string& line : trace::query::aggregation_catalog()) {
    out << "  " << line << "\n";
  }
  out << "--where grammar: `;`-separated kinds=a,b  station=A..B\n"
         "  time_ms=A..B  time_ns=A..B (range ends omittable)\n"
         "query observability: --stats prints per-file scan accounting\n"
         "  to stderr; --metrics-out writes a csmabw-run-report JSON,\n"
         "  --prof a Chrome/Perfetto trace (see README, Observability)\n";
  return code;
}

std::string required(const util::Args& args, const char* name) {
  const std::string value = args.get(name, "");
  CSMABW_REQUIRE(!value.empty(),
                 std::string("trace_tool: --") + name + " is required");
  return value;
}

// ------------------------------------------------------------------ info

int cmd_info(const util::Args& args) {
  args.require_known({"in"});
  const std::string path = required(args, "in");
  const trace::MappedTrace trace(path);
  const trace::TraceMeta& meta = trace.meta();
  std::cout << "# " << path << "\n";
  std::cout << "version: " << trace::format::kFormatVersion << "\n";
  std::cout << "file_bytes: " << trace.file_size() << "\n";
  std::cout << "io: " << (trace.mapped() ? "mmap" : "buffered") << "\n";
  std::cout << "cell: " << meta.cell << "\nrepetition: " << meta.repetition
            << "\n";
  std::cout << "train_n: " << meta.train_n
            << "\ntrain_size: " << meta.train_size
            << "\ntrain_gap_ns: " << meta.train_gap_ns << "\n";
  std::cout << "seed: " << meta.seed << "\n";
  std::cout << "label: " << (meta.label.empty() ? "-" : meta.label) << "\n";

  std::cout << "events: " << trace.events()
            << "\npages: " << trace.pages().size() << "\n";

  std::array<std::uint64_t, trace::kEventKindCount> counts{};
  std::map<int, std::uint64_t> per_station;
  TimeNs first;
  TimeNs last;
  bool any = false;
  trace.scan([&](const trace::TraceEvent& e) {
    ++counts[static_cast<std::size_t>(trace::kind_index(e.kind))];
    ++per_station[e.station];
    if (!any) {
      first = e.time;
      any = true;
    }
    last = e.time;
  });
  if (any) {
    std::cout << "span_ms: " << util::Table::format(first.to_ms(), 3)
              << " .. " << util::Table::format(last.to_ms(), 3) << "\n";
  }
  for (int k = 0; k < trace::kEventKindCount; ++k) {
    std::cout << "count." << trace::kind_name(static_cast<trace::EventKind>(
                     k + 1))
              << ": " << counts[static_cast<std::size_t>(k)] << "\n";
  }
  for (const auto& [station, n] : per_station) {
    if (station == trace::kChannelStation) {
      std::cout << "station.channel: " << n << "\n";
    } else {
      std::cout << "station." << station << ": " << n << "\n";
    }
  }
  return 0;
}

// ----------------------------------------------------------------- query

/// The fleet to query: every trace under --dir (in replay order), or
/// the single --in file.
std::vector<trace::TraceFile> query_files(const util::Args& args) {
  const std::string dir = args.get("dir", "");
  const std::string in = args.get("in", "");
  CSMABW_REQUIRE(dir.empty() != in.empty(),
                 "trace_tool: give exactly one of --dir or --in");
  if (!dir.empty()) {
    const std::vector<trace::TraceFile> files = trace::list_traces(dir);
    CSMABW_REQUIRE(!files.empty(), "no .cctrace files under `" + dir + "`");
    return files;
  }
  return {trace::TraceFile{in, trace::MappedTrace(in).meta()}};
}

int cmd_query(const util::Args& args) {
  args.require_known({"dir", "in", "agg", "where", "threads", "csv", "jsonl",
                      "no-pushdown", "pages-per-unit", "stats",
                      "metrics-out", "prof", "obs"});
  const std::vector<trace::TraceFile> files = query_files(args);
  const trace::query::QueryPredicate pred =
      trace::query::QueryPredicate::parse(args.get("where", ""));
  const std::unique_ptr<trace::query::Aggregation> agg =
      trace::query::make_aggregation(args.get("agg", "counts"));

  const bool per_file_stats = args.get("stats", false);
  // --stats needs per-unit wall times, which the engine only records
  // with an enabled registry — so --stats force-enables it.
  bench::ObsState obs(args, "trace_tool", per_file_stats);
  std::vector<trace::query::FileScanStats> file_stats;

  trace::query::QueryOptions qopts;
  qopts.pushdown = !args.get("no-pushdown", false);
  qopts.pages_per_unit = args.get("pages-per-unit", 0);
  qopts.metrics = obs.metrics();
  qopts.profiler = obs.profiler();
  if (per_file_stats) {
    qopts.file_stats = &file_stats;
  }
  const exp::Runner runner = bench::runner_from(args);

  const std::int64_t query_start = obs::now_ns();
  const trace::query::ScanStats stats =
      trace::query::run_query(files, pred, *agg, runner, qopts);
  const std::int64_t query_ns = obs::now_ns() - query_start;

  exp::CollectorOptions copts;
  copts.csv_path = args.get("csv", "");
  copts.jsonl_path = args.get("jsonl", "");
  exp::Collector collector(agg->columns(), copts);
  for (const std::vector<exp::Value>& row : agg->rows()) {
    collector.add(row);
  }
  collector.table().print(std::cout);
  std::cout << "# agg " << agg->name() << ", where " << pred.describe()
            << ", " << runner.threads() << " threads\n";
  std::cout << "# scanned " << stats.files << " files, "
            << stats.pages - stats.pages_skipped << "/" << stats.pages
            << " pages (" << stats.pages_skipped
            << " skipped by index), decoded " << stats.events_decoded
            << " events, matched " << stats.events_matched << "\n";
  if (!copts.csv_path.empty()) {
    std::cout << "# csv written: " << copts.csv_path << "\n";
  }
  if (per_file_stats) {
    std::cerr << "# stats: per-file scan accounting (wall sums a file's "
                 "unit scan times; units run concurrently)\n";
    for (std::size_t i = 0; i < file_stats.size(); ++i) {
      const trace::query::FileScanStats& fs = file_stats[i];
      const double wall_s = static_cast<double>(fs.wall_ns) * 1e-9;
      std::cerr << "# stats: " << files[i].path << " pages="
                << fs.pages - fs.pages_skipped << "/" << fs.pages << " ("
                << fs.pages_skipped << " skipped) decoded="
                << fs.events_decoded << " matched=" << fs.events_matched
                << " wall=" << util::Table::format(wall_s * 1e3, 3)
                << "ms eff="
                << util::Table::format(
                       wall_s > 0.0
                           ? static_cast<double>(fs.events_decoded) / wall_s
                           : 0.0,
                       4)
                << " events/s\n";
    }
    const double query_s = static_cast<double>(query_ns) * 1e-9;
    std::cerr << "# stats: total wall="
              << util::Table::format(query_s * 1e3, 3) << "ms eff="
              << util::Table::format(
                     query_s > 0.0
                         ? static_cast<double>(stats.events_decoded) / query_s
                         : 0.0,
                     4)
              << " events/s (" << runner.threads() << " threads)\n";
  }
  obs.finish({}, runner.threads());
  return 0;
}

// ---------------------------------------------------------------- filter

int cmd_filter(const util::Args& args) {
  args.require_known({"in", "out", "station", "flow", "kinds", "where",
                      "no-pushdown"});
  const std::string in_path = required(args, "in");
  const std::string out_path = required(args, "out");

  // The selection is one QueryPredicate (--where, narrowed further by
  // the legacy --station/--kinds flags) so the copy rides the same
  // skip-index pushdown as `query`; --flow stays a post-filter (flows
  // are not summarized per page).
  trace::query::QueryPredicate pred =
      trace::query::QueryPredicate::parse(args.get("where", ""));
  if (args.has("station")) {
    const int station = args.get("station", 0);
    CSMABW_REQUIRE(station >= 0 && station <= 0xffff,
                   "trace_tool: --station out of range 0..65535");
    pred.station_min = pred.station_max =
        static_cast<std::uint16_t>(station);
  }
  if (args.has("kinds")) {
    std::uint16_t mask = 0;
    for (const std::string& name : args.get_strings("kinds", {})) {
      mask = static_cast<std::uint16_t>(
          mask |
          (1u << trace::kind_index(trace::parse_kind(name))));
    }
    pred.kinds &= mask;
  }
  const bool by_flow = args.has("flow");
  const int flow = args.get("flow", 0);

  const trace::MappedTrace trace(in_path);
  trace::TraceWriter writer(out_path, trace.meta());
  trace::query::ScanStats stats;
  std::uint64_t kept = 0;
  trace::query::scan_pages(trace, 0, trace.pages().size(), pred,
                           !args.get("no-pushdown", false), &stats,
                           [&](const trace::TraceEvent& e) {
                             if (by_flow && e.flow != flow) {
                               return;
                             }
                             writer.on_event(e);
                             ++kept;
                           });
  writer.close();
  std::cout << "# kept " << kept << " of " << trace.events()
            << " events -> " << out_path << " (" << stats.pages_skipped
            << " of " << stats.pages << " pages skipped by index)\n";
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) {
    return usage(std::cerr, 2);
  }
  const std::string cmd = argv[1];
  const util::Args args(argc - 1, argv + 1);
  if (cmd == "info") {
    return cmd_info(args);
  }
  if (cmd == "query") {
    return cmd_query(args);
  }
  if (cmd == "filter") {
    return cmd_filter(args);
  }
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    return usage(std::cout, 0);
  }
  std::cerr << "trace_tool: unknown subcommand `" << cmd << "`\n";
  return usage(std::cerr, 2);
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("trace_tool", run, argc, argv);
}
