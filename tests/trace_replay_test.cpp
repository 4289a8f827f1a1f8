#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "core/scenario.hpp"
#include "exp/engine.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "queueing/fifo_trace.hpp"
#include "stats/rng.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "traffic/probe_train.hpp"
#include "util/require.hpp"

namespace csmabw::trace {
namespace {

namespace fs = std::filesystem;

/// An in-memory sink collecting raw events.
class VectorSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& e) override { events.push_back(e); }
  std::vector<TraceEvent> events;
};

core::ScenarioConfig fig06_config() {
  core::ScenarioConfig cfg;
  cfg.seed = 6;
  cfg.contenders.push_back(
      core::StationSpec::poisson(BitRate::mbps(4.0)));
  return cfg;
}

traffic::TrainSpec short_train(int n = 60) {
  traffic::TrainSpec spec;
  spec.n = n;
  spec.size_bytes = 1500;
  spec.gap = BitRate::mbps(5.0).gap_for(1500);
  return spec;
}

TEST(TraceReplay, TracingDoesNotPerturbTheRun) {
  const core::Scenario scenario(fig06_config());
  const core::TrainRun untraced = scenario.run_train(short_train(), 0);
  VectorSink sink;
  const core::TrainRun traced =
      scenario.run_train(short_train(), 0, false, &sink);
  ASSERT_EQ(traced.packets.size(), untraced.packets.size());
  for (std::size_t i = 0; i < traced.packets.size(); ++i) {
    EXPECT_EQ(traced.packets[i].depart_time,
              untraced.packets[i].depart_time);
    EXPECT_EQ(traced.packets[i].head_time, untraced.packets[i].head_time);
  }
  EXPECT_FALSE(sink.events.empty());
  // Emission order is simulation order.
  for (std::size_t i = 1; i < sink.events.size(); ++i) {
    EXPECT_GE(sink.events[i].time, sink.events[i - 1].time);
  }
}

TEST(TraceReplay, ReconstructsTheLiveRunBitIdentically) {
  const core::Scenario scenario(fig06_config());
  const fs::path path =
      fs::temp_directory_path() / "csmabw-trace-replay-live.cctrace";
  TraceWriter writer(path.string());
  const core::TrainRun live =
      scenario.run_train(short_train(), 3, false, &writer);
  writer.close();

  const core::TrainRun replayed = replay_train_file(path.string());
  fs::remove(path);

  ASSERT_EQ(replayed.packets.size(), live.packets.size());
  EXPECT_EQ(replayed.any_dropped, live.any_dropped);
  for (std::size_t i = 0; i < live.packets.size(); ++i) {
    const mac::Packet& a = live.packets[i];
    const mac::Packet& b = replayed.packets[i];
    EXPECT_EQ(b.seq, a.seq);
    EXPECT_EQ(b.flow, a.flow);
    EXPECT_EQ(b.size_bytes, a.size_bytes);
    EXPECT_EQ(b.enqueue_time, a.enqueue_time) << "packet " << i;
    EXPECT_EQ(b.head_time, a.head_time) << "packet " << i;
    EXPECT_EQ(b.first_tx_time, a.first_tx_time) << "packet " << i;
    EXPECT_EQ(b.depart_time, a.depart_time) << "packet " << i;
    EXPECT_EQ(b.retries, a.retries) << "packet " << i;
    EXPECT_EQ(b.dropped, a.dropped) << "packet " << i;
  }
  // Identical records mean identical derived statistics.
  EXPECT_EQ(replayed.access_delays_s(), live.access_delays_s());
  EXPECT_EQ(replayed.output_gap_s(), live.output_gap_s());
}

TEST(TraceReplay, CampaignRecordingReplaysBitIdentically) {
  const fs::path dir =
      fs::temp_directory_path() / "csmabw-trace-replay-campaign";
  fs::remove_all(dir);

  exp::SweepSpec spec;
  spec.scenarios = {"phy=dot11b_short;contenders=poisson:rate=4M"};
  spec.train_lengths = {60};
  spec.probe_mbps = {5.0};
  spec.repetitions = 10;
  spec.campaign_seed = 6;
  spec.trace_dir = dir.string();
  const exp::Campaign campaign(spec);

  exp::TrainCampaignConfig tcfg;
  tcfg.ks_prefix = 1;
  tcfg.shard_size = 4;  // several shards even at 10 repetitions
  exp::RunnerOptions ropts;
  ropts.threads = 2;  // recording must be deterministic under threading
  const auto live =
      exp::run_train_campaign(campaign, tcfg, exp::Runner(ropts));
  const exp::TrainCellStats& live_cell = live.front();

  const std::vector<TraceFile> files = list_traces(dir.string());
  ASSERT_EQ(files.size(), 10u);
  for (int r = 0; r < 10; ++r) {
    EXPECT_EQ(files[static_cast<std::size_t>(r)].meta.repetition, r);
    EXPECT_EQ(files[static_cast<std::size_t>(r)].meta.cell, 0);
    EXPECT_EQ(files[static_cast<std::size_t>(r)].meta.train_n, 60);
    EXPECT_EQ(fs::path(files[static_cast<std::size_t>(r)].path).filename(),
              fs::path(train_trace_path("", 0, r)).filename());
  }

  // Replay single-threaded, folding the records through the same
  // add/merge calls in the same shards of 4: every statistic must come
  // back bit-identical, not merely close.
  exp::TrainCellStats replay(60, tcfg);
  exp::TrainCellStats shard(60, tcfg);
  for (std::size_t r = 0; r < files.size(); ++r) {
    shard.add(exp::train_rep_record(
        replay_train_file(files[r].path, core::kProbeFlow)));
    if ((r + 1) % 4 == 0 || r + 1 == files.size()) {
      replay.merge(shard);
      shard = exp::TrainCellStats(60, tcfg);
    }
  }

  EXPECT_EQ(replay.used, live_cell.used);
  EXPECT_EQ(replay.dropped, live_cell.dropped);
  EXPECT_EQ(replay.output_gap_s.mean(), live_cell.output_gap_s.mean());
  EXPECT_EQ(replay.analyzer.steady_mean(), live_cell.analyzer.steady_mean());
  EXPECT_EQ(replay.analyzer.ks_at(0), live_cell.analyzer.ks_at(0));
  EXPECT_EQ(replay.analyzer.transient_length(0.1),
            live_cell.analyzer.transient_length(0.1));
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(replay.analyzer.mean_at(i), live_cell.analyzer.mean_at(i))
        << "index " << i;
  }
  fs::remove_all(dir);
}

TEST(TraceReplay, FifoTraceEventsReconstruct) {
  stats::Rng rng(9);
  std::vector<queueing::TraceJob> jobs;
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    t += rng.exponential(1e-3);
    jobs.push_back(queueing::TraceJob{
        TimeNs::from_seconds(t),
        TimeNs::from_seconds(rng.exponential(0.9e-3)), 5});
  }
  VectorSink sink;
  const queueing::FifoTraceResult result =
      queueing::run_fifo_trace(jobs, &sink);

  PacketReconstructor rec;
  for (const TraceEvent& e : sink.events) {
    rec.on_event(e);
  }
  ASSERT_EQ(rec.packets().size(), result.jobs().size());
  EXPECT_EQ(rec.pending(), 0u);
  for (std::size_t i = 0; i < rec.packets().size(); ++i) {
    const mac::Packet& p = rec.packets()[i].packet;
    const queueing::ServedJob& sj = result.jobs()[i];
    EXPECT_EQ(p.enqueue_time, sj.job.arrival) << "job " << i;
    // The Lindley start instant IS the reconstructed head-of-queue time.
    EXPECT_EQ(p.head_time, sj.start) << "job " << i;
    EXPECT_EQ(p.depart_time, sj.depart) << "job " << i;
    EXPECT_EQ(p.flow, 5);
  }
}

TEST(TraceReplay, FifoZeroServiceJobsEmitEnqueueBeforeSuccess) {
  // A zero-service job departs at its own arrival instant; its enqueue
  // event must still precede its success so the trace reconstructs.
  std::vector<queueing::TraceJob> jobs{
      {TimeNs::us(10), TimeNs::zero(), 1},
      {TimeNs::us(10), TimeNs::us(5), 1},   // arrival ties a departure
      {TimeNs::us(15), TimeNs::zero(), 1},  // departs at job 1's depart
  };
  VectorSink sink;
  const queueing::FifoTraceResult result =
      queueing::run_fifo_trace(jobs, &sink);

  PacketReconstructor rec;
  for (const TraceEvent& e : sink.events) {
    rec.on_event(e);  // must not throw
    if (e.kind == EventKind::kQueueDepth) {
      EXPECT_GE(e.value, 0);
    }
  }
  ASSERT_EQ(rec.packets().size(), 3u);
  EXPECT_EQ(rec.pending(), 0u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rec.packets()[i].packet.head_time, result.jobs()[i].start);
    EXPECT_EQ(rec.packets()[i].packet.depart_time, result.jobs()[i].depart);
  }
}

TEST(TraceReplay, RejectsIncompleteTraces) {
  VectorSink sink;
  const core::Scenario scenario(fig06_config());
  (void)scenario.run_train(short_train(20), 0, false, &sink);

  // Dropping all enqueue events makes reconstruction impossible.
  PacketReconstructor rec;
  EXPECT_THROW(
      {
        for (const TraceEvent& e : sink.events) {
          if (e.kind != EventKind::kEnqueue) {
            rec.on_event(e);
          }
        }
      },
      util::PreconditionError);

  // And an absent flow is reported, not silently empty.
  PacketReconstructor full;
  for (const TraceEvent& e : sink.events) {
    full.on_event(e);
  }
  EXPECT_THROW((void)replay_train(full.packets(), 424242),
               util::PreconditionError);
}

}  // namespace
}  // namespace csmabw::trace
