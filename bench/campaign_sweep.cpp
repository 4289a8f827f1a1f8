// Engine-only campaign: one command sweeping scenario-grammar cells
// (optionally × conflict-graph topology, train length, probe rate,
// measurement method), running every (cell, repetition) across a worker
// pool and streaming results to the console, --csv=PATH and
// --jsonl=PATH.
//
// --scenarios takes a '|'-separated list of registered scenario names
// and/or inline scenario grammars (core::ScenarioSpec), the OUTERMOST
// axis; without it the campaign is the one paper_fig2 cell.  The
// paper's cell at other loads is `contenders=poisson:rate=4M` (two such
// stations: `contenders=2x poisson:rate=4M`; FIFO cross-traffic on the
// probe's queue: `;fifo=poisson:rate=1M`; another PHY: `phy=dot11g;`).
// The cross_mbps column is each cell's total offered load.
// --topologies adds a conflict-graph axis under it: each scenario entry
// is expanded once per topology spec (clique|grid:3x3|pairs-hidden:2,
// '|'-separated like --scenarios), labelling cells with the full
// grammar including `topology=`.  --list-scenarios, --list-methods and
// --list-topologies print the registries (names + option keys) and
// exit.
//
// Without --methods each cell is a probe-train ensemble and the output
// is one summary row per cell.  With --methods the method list becomes
// an extra (innermost) grid axis: every repetition runs one measurement
// tool through core::MethodRegistry and emits one row per repetition
// (see exp::Collector::method_columns).
//
// --format=json replaces the stdout table with the same rows as JSON
// lines (pure JSONL: the announce header and digests are suppressed).
// --out=FILE sends that stdout payload (table or JSONL) to a file
// instead; stdout stays the default and progress/ETA keeps going to
// stderr either way.
//
// The output is byte-identical for any --threads value: cells and
// repetitions are seeded from (campaign seed, cell index, repetition)
// alone and merged in a fixed order.
//
// --trace=DIR additionally records every (cell, repetition) as a binary
// event trace (DIR/cell-CCCCC-rep-RRRRRR.cctrace) for offline replay
// with `trace_tool query --dir=DIR --agg=delay`; recording never changes
// the campaign's results.  The directory is created but never cleared —
// record different campaigns into different directories (the delay
// aggregation rejects mixed recordings).
//
// Fleet-scale serving (src/serve/), with the content-addressed result
// cache as the campaign's one result store:
//   --cache=DIR           consult/fill the cache; repetitions already
//                         cached are served instead of simulated
//                         (byte-identical output either way).  Every
//                         record is stored as soon as it completes, so
//                         a killed run resumes by running it again with
//                         the same --cache
//   --shard=I/N           run every N-th work shard in this process into
//                         --cache=DIR and emit no rows; run N processes
//                         with I = 0..N-1 (on several hosts, one
//                         directory each, copied together afterwards)
//   --merge               serve the whole campaign from --cache=DIR and
//                         produce the normal output without simulating
//                         anything; a missing record is an error
// The serve stats line "# serve: computed=... cache_hits=..." goes to
// stderr.  A warm-cache or merge run reports computed=0.
//
// Observability (src/obs/):
//   --metrics-out=FILE    write a csmabw-run-report JSON (schema v1):
//                         merged counters/gauges/histograms split into
//                         deterministic vs wall-time sections, per-cell
//                         wall time + events/s, slowest cells, thread
//                         utilization
//   --prof=FILE           write a Chrome/Perfetto trace of campaign
//                         spans (per-rep jobs, scenario builds, cache
//                         lookups/stores, merge);
//                         open in ui.perfetto.dev
//   --obs                 enable the metrics registry without a report
// All observability output goes to its own files / stderr; the campaign
// rows (stdout, --csv, --jsonl, traces) are byte-identical with
// observability on or off.
//
// Bad input (an unknown or misspelled flag, a malformed value, a merge
// whose cache lacks a record) prints one `campaign_sweep: error: ...`
// line to stderr and exits 2.
//
// Examples:
//   campaign_sweep --reps=200 --threads=8 --csv=sweep.csv
//     --scenarios='contenders=poisson:rate=2M|contenders=2x poisson:rate=2M'
//   campaign_sweep --scenarios='paper_fig2|paper_fig3' --reps=3
//     --methods='bisection;slops:train_length=30;packet_pair:pairs=50'
//     --format=json
//   campaign_sweep --reps=50 --train=60
//     --scenarios='paper_fig2|rate_anomaly|contenders=2x onoff:rate=3M,duty=0.3'
//   campaign_sweep --reps=50 --train=60
//     --scenarios='contenders=8x poisson:rate=400k'
//     --topologies='clique|grid:3x3'
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "core/method.hpp"
#include "core/scenario.hpp"
#include "exp/collector.hpp"
#include "exp/engine.hpp"
#include "topo/registry.hpp"
#include "traffic/model.hpp"
#include "util/require.hpp"

using namespace csmabw;

namespace {

int list_methods() {
  const core::MethodRegistry& registry = core::MethodRegistry::global();
  std::cout << "# measurement methods (spec: name[:key=value,...])\n";
  for (const std::string& name : registry.names()) {
    std::cout << name;
    const std::string& help = registry.help(name);
    if (!help.empty()) {
      std::cout << "  [" << help << "]";
    }
    std::cout << "\n";
  }
  return 0;
}

int list_scenarios() {
  const core::ScenarioRegistry& registry = core::ScenarioRegistry::global();
  std::cout << "# registered scenarios (--scenarios also accepts inline "
               "grammar: [name=<label>;][phy=<preset>;]"
               "[topology=<topo-spec>;]contenders=<group> + ..."
               "[;fifo=<spec>]; phy defaults to dot11b_short, topology "
               "to clique — see --list-topologies)\n";
  for (const std::string& name : registry.names()) {
    std::cout << name << "  =  " << registry.get(name).describe() << "\n";
  }
  const traffic::TrafficModelRegistry& models =
      traffic::TrafficModelRegistry::global();
  std::cout << "# traffic models (contender/fifo specs)\n";
  for (const std::string& name : models.names()) {
    std::cout << name;
    const std::string& help = models.help(name);
    if (!help.empty()) {
      std::cout << "  [" << help << "]";
    }
    std::cout << "\n";
  }
  return 0;
}

int list_topologies() {
  const topo::TopologyRegistry& registry = topo::TopologyRegistry::global();
  std::cout << "# topology generators (spec: name[:arg]; use as a "
               "scenario's `topology=` field or as --topologies entries)\n";
  for (const std::string& name : registry.names()) {
    std::cout << name;
    const std::string& help = registry.help(name);
    if (!help.empty()) {
      std::cout << "  [" << help << "]";
    }
    std::cout << "\n";
  }
  return 0;
}

/// Owning counterpart of serve::CampaignServeOptions, built from the
/// --cache/--shard/--merge flags.
struct ServeState {
  std::unique_ptr<serve::ResultCache> cache;
  serve::CampaignServeOptions io;
  bool active = false;      // any serve flag present
  bool shard_only = false;  // fill the cache instead of emitting rows
};

bool serve_flags_present(const util::Args& args) {
  return args.has("cache") || args.has("shard") || args.has("merge");
}

// Out-param rather than a return value: `st.io` points into `st` (the
// cache), so the object must never move.  Serve accounting goes through
// `obs`'s registry (always enabled when any serve flag is present, so
// the "# serve:" stderr line keeps its exact values with or without
// --metrics-out).  The engine ticks `progress` once per repetition.
void init_serve_state(ServeState& st, const util::Args& args,
                      exp::Progress* progress, bench::ObsState& obs) {
  st.io.metrics = obs.metrics();
  st.io.profiler = obs.profiler();
  st.io.progress = progress;
  st.active = serve_flags_present(args);
  if (!st.active) {
    return;
  }

  const std::string cache_dir = args.get("cache", "");
  const bool merge = args.get("merge", false);
  CSMABW_REQUIRE(!cache_dir.empty() || (!merge && !args.has("shard")),
                 "--merge and --shard need --cache=DIR: shard processes "
                 "store their records there and a merge reads them back");
  if (merge) {
    CSMABW_REQUIRE(!args.has("shard"),
                   "--merge serves a finished campaign from the cache; it "
                   "cannot be combined with --shard");
    CSMABW_REQUIRE(std::filesystem::is_directory(cache_dir),
                   "--merge reads --cache=" + cache_dir +
                       ", which is not a directory");
    // Merge never simulates: a repetition missing from the cache is an
    // incomplete fleet run and must fail loudly, not silently recompute
    // into a partially-fresh result.
    st.io.forbid_compute = true;
  }
  if (args.has("shard")) {
    st.io.shard = serve::parse_shard(args.get("shard", ""));
    st.shard_only = true;
  }
  if (!cache_dir.empty()) {
    st.cache = std::make_unique<serve::ResultCache>(cache_dir, obs.metrics(),
                                                    obs.profiler());
    st.io.cache = st.cache.get();
  }
}

// stderr, like progress: stdout stays byte-identical whether results
// were computed or cached.  Values read the merged registry counters
// the engine and cache maintain.
void print_serve_stats(const ServeState& st, const obs::Registry& registry) {
  if (!st.active) {
    return;
  }
  std::cerr << "# serve: computed=" << registry.value("exp.reps.computed")
            << " cache_hits=" << registry.value("exp.reps.cache_hit");
  if (st.cache != nullptr) {
    std::cerr << " cache_stores=" << st.cache->stores();
  }
  std::cerr << "\n";
}

void print_shard_done(const ServeState& st) {
  std::cerr << "# shard " << st.io.shard.index << "/" << st.io.shard.count
            << " stored in cache " << st.cache->root() << "\n";
}

int run_method_sweep(const exp::Campaign& campaign, const util::Args& args,
                     bool json, std::ostream& out, bench::ObsState& obs) {
  exp::Progress progress(campaign.total_repetitions(), "methods",
                         bench::progress_enabled(args));
  const exp::Runner runner = bench::runner_from(args);
  ServeState st;
  init_serve_state(st, args, &progress, obs);
  // stderr, not stdout: stdout must stay byte-identical across --threads.
  std::cerr << "# threads: " << runner.threads() << "\n";
  const std::vector<exp::MethodRun> runs = exp::run_method_campaign(
      campaign, exp::MethodCampaignConfig{}, runner, st.io);
  progress.finish();
  print_serve_stats(st, obs.registry());
  std::vector<obs::CellObs> cell_obs(campaign.cells().size());
  for (const exp::MethodRun& run : runs) {
    obs::CellObs& c = cell_obs[static_cast<std::size_t>(run.cell_index)];
    c.cell = run.cell_index;
    c.wall_ns += run.wall_ns;
    if (run.served) {
      ++c.cached;
    } else if (!st.shard_only || run.wall_ns > 0) {
      ++c.computed;
    }
  }
  obs.finish(cell_obs, runner.threads());
  if (st.shard_only) {
    print_shard_done(st);
    return 0;
  }

  exp::CollectorOptions copts;
  copts.csv_path = args.get("csv", "");
  copts.jsonl_path = args.get("jsonl", "");
  if (json) {
    copts.jsonl_stream = &out;
  }
  exp::Collector collector(exp::Collector::method_columns(), copts);
  for (const exp::MethodRun& run : runs) {
    collector.add(exp::Collector::method_row(
        campaign.cells()[static_cast<std::size_t>(run.cell_index)],
        run.repetition, run.report));
  }

  if (!json) {
    collector.table().print(out);
    if (!copts.csv_path.empty()) {
      out << "# csv written: " << copts.csv_path << "\n";
    }
    if (!copts.jsonl_path.empty()) {
      out << "# jsonl written: " << copts.jsonl_path << "\n";
    }
    const int est_col = 10;  // estimate_mbps, after the 8 coords + method/rep
    out << "# estimate across runs: min "
        << util::Table::format(collector.column_stat(est_col).min(), 3)
        << " / mean "
        << util::Table::format(collector.column_stat(est_col).mean(), 3)
        << " / max "
        << util::Table::format(collector.column_stat(est_col).max(), 3)
        << " Mb/s\n";
  }
  return 0;
}

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"list-methods", "list-scenarios", "list-topologies",
                      "format", "out", "csv", "jsonl", "seed", "scenarios",
                      "topologies", "train", "probe-mbps", "methods", "reps",
                      "trace", "threads", "progress", "cache", "shard",
                      "merge", "metrics-out", "prof", "obs"});

  if (args.get("list-methods", false)) {
    return list_methods();
  }
  if (args.get("list-scenarios", false)) {
    return list_scenarios();
  }
  if (args.get("list-topologies", false)) {
    return list_topologies();
  }

  const std::string format = args.get("format", "table");
  CSMABW_REQUIRE(format == "table" || format == "json",
                 "--format must be table or json");
  const bool json = format == "json";

  const bool shard_run = args.has("shard");
  if (shard_run) {
    CSMABW_REQUIRE(!json && !args.has("csv") && !args.has("jsonl") &&
                       !args.has("out"),
                   "--shard runs fill the cache, not rows; drop "
                   "--csv/--jsonl/--out/--format=json and run --merge "
                   "--cache=DIR once every shard is done");
  }

  // --out=FILE redirects the stdout payload (table or JSONL) to a file;
  // --csv/--jsonl sinks and the stderr progress stream are unaffected.
  std::ofstream out_file;
  std::ostream* out = &std::cout;
  const std::string out_path = args.get("out", "");
  if (!out_path.empty()) {
    out_file.open(out_path);
    CSMABW_REQUIRE(out_file.is_open(),
                   "cannot open --out file `" + out_path + "`");
    out = &out_file;
  }

  exp::SweepSpec spec;
  spec.campaign_seed = static_cast<std::uint64_t>(args.get("seed", 1));
  const std::string scenarios = args.get("scenarios", "");
  if (!scenarios.empty()) {
    spec.scenarios = exp::split_scenario_list(scenarios);
  }
  const std::string topologies = args.get("topologies", "");
  if (!topologies.empty()) {
    // Same '|' separator as --scenarios (topology args use ':').
    spec.topologies = exp::split_scenario_list(topologies);
  }
  spec.train_lengths = args.get_ints("train", {400});
  spec.probe_mbps = args.get_doubles("probe-mbps", {5.0});
  const std::string methods = args.get("methods", "");
  if (!methods.empty()) {
    spec.methods = core::split_method_list(methods);
  }
  spec.repetitions = args.get("reps", util::scaled_reps(100));
  spec.trace_dir = args.get("trace", "");
  CSMABW_REQUIRE(spec.trace_dir.empty() || spec.methods.empty(),
                 "--trace records probe-train campaigns; method runs "
                 "drive their own transports and are not recorded — drop "
                 "--trace or --methods");
  CSMABW_REQUIRE(spec.trace_dir.empty() || !serve_flags_present(args),
                 "--trace records a repetition only when it simulates; "
                 "cached repetitions would leave holes in the "
                 "trace directory — drop --trace or the serve flags");
  const exp::Campaign campaign(spec);

  if (!json && !shard_run) {
    bench::announce_to(
        *out, "Campaign sweep",
        spec.methods.empty()
            ? "transient + throughput metrics over the full scenario grid"
            : "measurement methods over the full scenario grid",
        std::to_string(campaign.size()) + " cells x " +
            std::to_string(spec.repetitions) + " repetitions = " +
            std::to_string(campaign.total_repetitions()) +
            (spec.methods.empty() ? " probing trains" : " tool runs"));
  }

  bench::ObsState obs(args, "campaign_sweep", serve_flags_present(args));

  if (!spec.methods.empty()) {
    return run_method_sweep(campaign, args, json, *out, obs);
  }

  exp::TrainCampaignConfig tcfg;
  tcfg.ks_prefix = 1;  // KS of the first packet vs the steady pool
  exp::Progress progress(campaign.total_repetitions(), "campaign",
                         bench::progress_enabled(args));
  const exp::Runner runner = bench::runner_from(args);
  ServeState st;
  init_serve_state(st, args, &progress, obs);
  // stderr, not stdout: stdout must stay byte-identical across --threads.
  std::cerr << "# threads: " << runner.threads() << "\n";
  const auto results = exp::run_train_campaign(campaign, tcfg, runner, st.io);
  progress.finish();
  print_serve_stats(st, obs.registry());
  {
    std::vector<obs::CellObs> cell_obs;
    cell_obs.reserve(results.size());
    for (const exp::TrainCellStats& r : results) {
      cell_obs.push_back(r.obs);
    }
    obs.finish(cell_obs, runner.threads());
  }
  if (st.shard_only) {
    print_shard_done(st);
    return 0;
  }

  // Transient length at tolerance 0.1, the column the digest below and
  // CI's live-vs-replay comparison read.
  constexpr double kTol = 0.1;
  std::vector<std::string> columns = exp::Collector::cell_columns();
  const std::vector<std::string> metric_columns =
      exp::Collector::train_columns(kTol);
  columns.insert(columns.end(), metric_columns.begin(), metric_columns.end());
  exp::CollectorOptions copts;
  copts.csv_path = args.get("csv", "");
  copts.jsonl_path = args.get("jsonl", "");
  if (json) {
    copts.jsonl_stream = out;
  }
  exp::Collector collector(columns, copts);

  for (const exp::Cell& cell : campaign.cells()) {
    std::vector<exp::Value> row = exp::Collector::cell_coords(cell);
    const std::vector<exp::Value> metrics = exp::Collector::train_metrics(
        results[static_cast<std::size_t>(cell.index)], cell.train.size_bytes,
        kTol);
    row.insert(row.end(), metrics.begin(), metrics.end());
    collector.add(row);
  }

  if (json) {
    return 0;
  }
  collector.table().print(*out);
  if (!copts.csv_path.empty()) {
    *out << "# csv written: " << copts.csv_path << "\n";
  }
  if (!copts.jsonl_path.empty()) {
    *out << "# jsonl written: " << copts.jsonl_path << "\n";
  }
  if (!spec.trace_dir.empty()) {
    *out << "# traces written: " << spec.trace_dir << "/cell-*-rep-*"
         << ".cctrace (replay with trace_tool)\n";
  }

  // Campaign-level digest from the collector's column summaries.
  const int rate_col = static_cast<int>(columns.size()) - 6;
  const int transient_col = static_cast<int>(columns.size()) - 1;
  *out << "# measured probe rate across cells: min "
       << util::Table::format(collector.column_stat(rate_col).min(), 3)
       << " / mean "
       << util::Table::format(collector.column_stat(rate_col).mean(), 3)
       << " / max "
       << util::Table::format(collector.column_stat(rate_col).max(), 3)
       << " Mb/s\n";
  *out << "# transient length (tol 0.1) across cells: min "
       << collector.column_stat(transient_col).min() << " / max "
       << collector.column_stat(transient_col).max() << " packets\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("campaign_sweep", run, argc, argv);
}
