#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

namespace {

using csmabw::trace::EventKind;

/// Span durations (ns) grouped by span name.
std::map<std::string, std::vector<std::int64_t>> durations_by_name(
    const csmabw::obs::Profiler& profiler) {
  std::map<std::string, std::vector<std::int64_t>> out;
  for (const csmabw::obs::SpanEvent& span : profiler.sorted_spans()) {
    out[span.name].push_back(span.dur_ns);
  }
  for (auto& [name, durs] : out) {
    std::sort(durs.begin(), durs.end());
  }
  return out;
}

/// Nearest-rank percentile of sorted samples; 0 when there are none.
double percentile(const std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<LayerMetric> layer_metrics(const Layers& layers,
                                       const TracedRunSummary& summary) {
  const auto spans = durations_by_name(layers.profiler);
  const auto p = [&](const std::string& name, double pct) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : percentile(it->second, pct);
  };
  const auto total_ns = [&](const std::string& name) {
    const auto it = spans.find(name);
    double sum = 0.0;
    if (it != spans.end()) {
      for (const std::int64_t d : it->second) {
        sum += static_cast<double>(d);
      }
    }
    return sum;
  };

  const auto reps = static_cast<double>(layers.computed_reps);
  const auto events = static_cast<double>(layers.sim_events);
  const auto per_train = [&](EventKind kind) {
    return ratio(static_cast<double>(layers.sink.count(kind)), reps);
  };
  const auto per_event = [&](const char* counter) {
    return ratio(static_cast<double>(layers.registry.value(counter)), events);
  };

  std::vector<LayerMetric> m;
  const auto add = [&m](std::string name, double value, std::string unit) {
    m.push_back(LayerMetric{std::move(name), value, std::move(unit)});
  };

  add("sim.events_per_train", ratio(events, reps), "count");
  add("sim.allocs_per_event",
      ratio(static_cast<double>(layers.sim_allocs), events), "count");
  add("sim.slot_capacity", static_cast<double>(layers.slot_capacity),
      "count");

  add("mac.tx_attempts_per_train", per_train(EventKind::kTxAttempt), "count");
  add("mac.collisions_per_train", per_train(EventKind::kCollision), "count");
  add("mac.success_ratio",
      ratio(static_cast<double>(layers.sink.count(EventKind::kSuccess)),
            static_cast<double>(layers.sink.count(EventKind::kTxAttempt))),
      "ratio");
  add("mac.backoff_freezes_per_train", per_train(EventKind::kBackoffFreeze),
      "count");

  add("traffic.enqueues_per_train", per_train(EventKind::kEnqueue), "count");

  add("topo.medium.updates_per_event", per_event("topo.medium.updates"),
      "count");
  add("topo.medium.neighborhood_sweeps_per_event",
      per_event("topo.medium.neighborhood_sweeps"), "count");
  add("topo.medium.fire_rearms_per_event", per_event("topo.medium.fire_rearms"),
      "count");
  add("topo.build_ms", p("topo.build", 50) * 1e-6, "ms");

  add("core.cell_build_us", p("core.cell_build", 50) * 1e-3, "us");
  add("core.run_train_us.p50", p("core.run_train", 50) * 1e-3, "us");
  add("core.run_train_us.p99", p("core.run_train", 99) * 1e-3, "us");
  add("core.ns_per_event",
      ratio(total_ns("core.run_train") - total_ns("core.cell_build"), events),
      "ns");
  add("core.transient_add_us", p("core.transient_add", 50) * 1e-3, "us");
  for (const char* method :
       {"bisection", "slops", "packet_pair", "train_sweep", "steady_state"}) {
    add(std::string("core.method_run_ms.") + method,
        p(std::string("core.method_run.") + method, 50) * 1e-6, "ms");
  }
  add("core.trains_per_tool_run",
      ratio(static_cast<double>(layers.tool_trains),
            static_cast<double>(layers.tool_runs)),
      "count");
  add("core.tool_runs_per_s", summary.tool_runs_per_s, "1/s");

  add("exp.worker_util", summary.worker_util, "ratio");

  add("serve.key_us", p("serve.key", 50) * 1e-3, "us");
  add("serve.encode_us", p("serve.encode", 50) * 1e-3, "us");
  add("serve.decode_us", p("serve.decode", 50) * 1e-3, "us");
  add("serve.lookup_us", p("serve.lookup", 50) * 1e-3, "us");
  add("serve.store_us", p("serve.store", 50) * 1e-3, "us");
  add("serve.hit_ratio",
      ratio(static_cast<double>(layers.cache_hits),
            static_cast<double>(layers.cache_lookups)),
      "ratio");
  add("serve.bytes_per_rep",
      ratio(static_cast<double>(layers.stored_bytes),
            static_cast<double>(layers.cache_stores)),
      "B");
  add("serve.served_reps_per_s", summary.served_reps_per_s, "1/s");

  add("trace.bytes_per_event",
      ratio(static_cast<double>(layers.trace_bytes),
            static_cast<double>(layers.trace_events)),
      "B");
  add("trace.write_ns_per_event",
      ratio(static_cast<double>(layers.record_pass_ns - layers.plain_pass_ns),
            static_cast<double>(layers.trace_events)),
      "ns");
  add("trace.query.decode_ns_per_event",
      ratio(static_cast<double>(layers.query_decode_ns),
            static_cast<double>(layers.query_decoded_events)),
      "ns");
  add("trace.query.pages_skipped_frac",
      ratio(static_cast<double>(layers.pushdown_pages_skipped),
            static_cast<double>(layers.pushdown_pages)),
      "ratio");
  add("trace.query.events_per_s", summary.query_events_per_s, "1/s");

  add("obs.overhead_frac", summary.overhead_frac, "ratio");
  return m;
}

}  // namespace perfbench
