#pragma once

// The traced mode's recorder: spans from the benchmark's own call sites
// (obs::Profiler), deterministic counts read from result structs, a
// counting trace tap and the library's metrics registry, folded into the
// per-layer metrics at the end of the run.

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "trace/event.hpp"

namespace perfbench {

/// Counts trace events per kind and optionally forwards them to a second
/// sink (a TraceWriter during the record pass).
class CountingSink final : public csmabw::trace::TraceSink {
 public:
  void on_event(const csmabw::trace::TraceEvent& event) override {
    ++counts[static_cast<std::size_t>(csmabw::trace::kind_index(event.kind))];
    if (next != nullptr) {
      next->on_event(event);
    }
  }

  [[nodiscard]] std::int64_t count(csmabw::trace::EventKind kind) const {
    return counts[static_cast<std::size_t>(csmabw::trace::kind_index(kind))];
  }

  std::array<std::int64_t, csmabw::trace::kEventKindCount> counts{};
  csmabw::trace::TraceSink* next = nullptr;
};

/// A SimTransport that counts the trains a tool sends.  It stays a
/// SimTransport so steady_state keeps its exact simulator path.
class CountingTransport final : public csmabw::core::SimTransport {
 public:
  using SimTransport::SimTransport;

  csmabw::core::TrainResult send_train(
      const csmabw::traffic::TrainSpec& spec) override {
    ++trains;
    return SimTransport::send_train(spec);
  }

  std::int64_t trains = 0;
};

/// Everything the traced passes record.  Single-threaded by design.
class Layers {
 public:
  csmabw::obs::Profiler profiler;
  csmabw::obs::Registry registry;
  CountingSink sink;

  /// Simulated repetitions (every run_train call) and their costs.
  std::int64_t computed_reps = 0;
  std::int64_t sim_events = 0;
  std::int64_t sim_allocs = 0;
  std::int64_t slot_capacity = 0;

  /// Time spent on calls the engine does not make, made only to time a
  /// layer on its own: the standalone topology and cell builds.
  std::int64_t timing_only_ns = 0;

  /// Method runs and the trains they sent.
  std::int64_t tool_runs = 0;
  std::int64_t tool_trains = 0;

  /// Result-cache traffic of the cold and warm passes.
  std::int64_t cache_lookups = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_stores = 0;
  std::int64_t stored_bytes = 0;

  /// Trace writing: events and bytes the record passes wrote, and the
  /// wall time of record passes against plain passes of the same work.
  std::int64_t trace_events = 0;
  std::int64_t trace_bytes = 0;
  std::int64_t record_pass_ns = 0;
  std::int64_t plain_pass_ns = 0;

  /// Trace queries on one worker: events decoded by the full decode,
  /// and pages scanned/skipped by the pushdown query.
  std::int64_t query_decode_ns = 0;
  std::int64_t query_decoded_events = 0;
  std::int64_t pushdown_pages = 0;
  std::int64_t pushdown_pages_skipped = 0;

  void add_run(const csmabw::core::TrainRun& run) {
    ++computed_reps;
    sim_events += static_cast<std::int64_t>(run.sim_events);
    sim_allocs += static_cast<std::int64_t>(run.sim_allocations);
    slot_capacity = std::max(slot_capacity,
                             static_cast<std::int64_t>(run.sim_slot_capacity));
  }
};

/// Figures the traced mode measures around the traced passes.
struct TracedRunSummary {
  double overhead_frac = 0.0;  ///< traced wall / untraced 1-worker wall - 1
  double worker_util = 0.0;    ///< rep busy / (train wall * workers)
  double tool_runs_per_s = 0.0;
  double query_events_per_s = 0.0;
  double served_reps_per_s = 0.0;
};

/// One named per-layer figure with its unit.
struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The per-layer metrics, in a fixed order; every workload reports all
/// of them (0 where the workload does not load the layer).
[[nodiscard]] std::vector<LayerMetric> layer_metrics(
    const Layers& layers, const TracedRunSummary& summary);

}  // namespace perfbench
