#pragma once

// Versioned JSON run reports (`--metrics-out=FILE`).
//
// Schema `csmabw-run-report` version 1:
//
//   {
//     "schema": "csmabw-run-report",
//     "version": 1,
//     "tool": "<binary name>",
//     "deterministic": {
//       "counters":   { "<name>": <int>, ... },
//       "gauges":     { "<name>": <int>, ... },
//       "histograms": { "<name>": {"count":C,"sum":S,"min":m,"max":M,
//                                  "buckets":[[lo,hi,count],...]}, ... }
//     },
//     "nondeterministic": {
//       "threads": N, "wall_ns": W,
//       "counters": {...}, "gauges": {...}, "histograms": {...},
//       "utilization": {"busy_ns":B,"workers":N,"ratio":R},
//       "cells": [{"cell":i,"wall_ns":w,"computed":c,"cached":k,
//                  "sim_events":e,"events_per_s":r}, ...],
//       "slowest_cells": [{"cell":i,"wall_ns":w}, ...]
//     }
//   }
//
// Contract: everything under `deterministic` is a pure function of the
// workload — byte-identical for any --threads value and across
// repeated runs from the same starting state.  Everything under
// `nondeterministic` samples the wall clock (obs/clock.hpp) or depends
// on scheduling and carries no stability guarantee.  A metric's
// section is fixed at registration time (obs::Determinism).
//
// Versioning rule: adding fields is a compatible change (consumers
// must ignore unknown keys); removing or re-typing a field, or moving
// a metric between sections, bumps "version".  Histogram buckets are
// [lower, upper, count] triples with inclusive int64 bounds; empty
// buckets are omitted.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace csmabw::obs {

/// Per-campaign-cell runtime accounting, merged like every other cell
/// statistic (integer sums — shard-order independent).
struct CellObs {
  int cell = 0;
  std::int64_t wall_ns = 0;     ///< compute wall time (non-deterministic)
  std::int64_t computed = 0;    ///< repetitions simulated in this run
  std::int64_t cached = 0;      ///< repetitions served from the cache
  std::int64_t sim_events = 0;  ///< simulator events across computed reps

  void merge(const CellObs& other) {
    wall_ns += other.wall_ns;
    computed += other.computed;
    cached += other.cached;
    sim_events += other.sim_events;
  }
};

struct RunReportOptions {
  std::string tool;        ///< emitting binary ("campaign_sweep", ...)
  int threads = 0;         ///< worker pool size of the run
  int slowest_k = 5;       ///< how many cells "slowest_cells" ranks
  std::int64_t wall_ns = 0;  ///< whole-run wall time
  /// The wall-time histogram whose sum approximates total worker busy
  /// time (utilization = busy / (wall * threads)).
  std::string busy_histogram = "exp.rep.wall_ns";
};

/// Writes the version-1 run report.  `cells` may be empty (tools with
/// no campaign grid); per-cell rows are emitted in cell order.
void write_run_report(std::ostream& out, const Registry& registry,
                      const std::vector<CellObs>& cells,
                      const RunReportOptions& opts);

}  // namespace csmabw::obs
