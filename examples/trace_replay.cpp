// Record once, analyze forever: records a small fig06-style ensemble
// (paper_fig2 scenario) as binary event traces, then recomputes the
// transient statistics offline from the trace files alone and checks
// they match the live run bit for bit.
//
//   example_trace_replay [--reps=16] [--train=60] [--dir=trace-demo]
//
// The same trace files answer questions the live run never asked — the
// demo also counts collisions and backoff freezes per station straight
// from the event stream.
#include <array>
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "core/scenario.hpp"
#include "exp/engine.hpp"
#include "trace/query/mapped.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "util/cli.hpp"

using namespace csmabw;

namespace {

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.require_known({"reps", "train", "dir"});
  const int reps = args.get("reps", 16);
  const int train = args.get("train", 60);
  const std::string dir = args.get("dir", "trace-demo");

  // Stale traces from an earlier (larger) demo run would mix into the
  // replay; this directory is ours, so start it fresh.
  std::filesystem::remove_all(dir);

  // --- live: run the ensemble with a trace writer tapped in -------------
  exp::SweepSpec spec;
  spec.scenarios = {"paper_fig2"};
  spec.train_lengths = {train};
  spec.probe_mbps = {5.0};
  spec.repetitions = reps;
  spec.campaign_seed = 6;
  spec.trace_dir = dir;
  const exp::Campaign campaign(spec);
  exp::TrainCampaignConfig tcfg;
  tcfg.ks_prefix = 1;
  const auto live = exp::run_train_campaign(campaign, tcfg, exp::Runner());
  const exp::TrainCellStats& live_cell = live.front();

  std::cout << "# recorded " << reps << " repetitions to " << dir << "/\n";
  std::cout << "live   mean access delay: packet 1 = "
            << live_cell.analyzer.mean_at(0) * 1e3 << " ms, steady = "
            << live_cell.analyzer.steady_mean() * 1e3 << " ms\n";

  // --- offline: recompute the same statistics from the files alone ------
  // Each replayed train folds into the cell exactly as a live repetition
  // does, in the engine's shards, merged in order.
  exp::TrainCellStats replay(train, tcfg);
  exp::TrainCellStats shard(train, tcfg);
  const std::vector<trace::TraceFile> files = trace::list_traces(dir);
  std::array<std::uint64_t, trace::kEventKindCount> counts{};
  for (std::size_t r = 0; r < files.size(); ++r) {
    trace::PacketReconstructor rec;
    trace::MappedTrace(files[r].path).scan(
        [&](const trace::TraceEvent& e) { rec.on_event(e); });
    for (int k = 0; k < trace::kEventKindCount; ++k) {
      counts[static_cast<std::size_t>(k)] +=
          rec.counts()[static_cast<std::size_t>(k)];
    }
    shard.add(exp::train_rep_record(
        trace::replay_train(rec.packets(), core::kProbeFlow)));
    if ((r + 1) % static_cast<std::size_t>(tcfg.shard_size) == 0 ||
        r + 1 == files.size()) {
      replay.merge(shard);
      shard = exp::TrainCellStats(train, tcfg);
    }
  }

  std::cout << "replay mean access delay: packet 1 = "
            << replay.analyzer.mean_at(0) * 1e3 << " ms, steady = "
            << replay.analyzer.steady_mean() * 1e3 << " ms\n";
  const bool identical =
      replay.analyzer.mean_at(0) == live_cell.analyzer.mean_at(0) &&
      replay.analyzer.steady_mean() == live_cell.analyzer.steady_mean() &&
      replay.output_gap_s.mean() == live_cell.output_gap_s.mean();
  std::cout << "bit-identical to the live run: "
            << (identical ? "yes" : "NO") << "\n";

  // A question the live run never asked, answered from the same files:
  std::cout << "# offline extras: " << counts[trace::kind_index(
                   trace::EventKind::kCollision)]
            << " channel collisions, "
            << counts[trace::kind_index(trace::EventKind::kBackoffFreeze)]
            << " backoff freezes across " << reps << " repetitions\n";
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("example_trace_replay", run, argc, argv);
}
