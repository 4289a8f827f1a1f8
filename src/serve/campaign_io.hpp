#pragma once

// Serving options a campaign run carries into exp::run_train_campaign /
// exp::run_method_campaign: the content-addressed result cache every
// (cell, repetition) record is served from and stored into, which slice
// of the work grid this process owns (--shard=I/N), and the
// counters/progress surface.
//
// The cache is the campaign's one result store.  It stores each
// computed record atomically as soon as it completes, so a killed run
// resumes by running again with the same cache, `--shard=I/N`
// processes fill one cache directory (or one each, copied together
// afterwards — entry names are content hashes and never conflict), and
// a merge is a run that serves everything from the cache and never
// simulates (forbid_compute).  Every combination preserves the engine's
// byte-identity contract, because records store the exact bits the
// accumulators consume and the accumulation order never depends on
// where a record came from.
//
// Serve accounting lives in the observability registry (obs/metrics):
// the engine binds `exp.reps.computed` and `exp.reps.cache_hit`
// counters on `metrics` at run start, and the cache emits its own
// `serve.cache.*` metrics/spans when constructed with the same
// registry/profiler.

#include <string>

#include "exp/progress.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/result_cache.hpp"

namespace csmabw::serve {

/// A `--shard=I/N` work partition: a fixed campaign ordering (train
/// campaigns' result shards, method campaigns' (cell, rep) jobs) is
/// dealt round-robin — ordinal o belongs to process o mod N.
struct ShardSel {
  int index = 0;
  int count = 1;

  [[nodiscard]] bool selects(int ordinal) const {
    return ordinal % count == index;
  }
};

/// Parses "I/N" with 0 <= I < N, each a whole integer (util::parse_number:
/// no '+', no spaces); throws util::PreconditionError otherwise.
[[nodiscard]] ShardSel parse_shard(const std::string& text);

/// Serving configuration of one campaign run.  Everything optional and
/// non-owning; the default object computes every repetition and
/// persists nothing.
struct CampaignServeOptions {
  /// Content-addressed result cache; consulted per (cell, repetition),
  /// filled on every computed miss.
  ResultCache* cache = nullptr;
  /// This process's slice of the fixed work ordering; {0, 1} = all.
  ShardSel shard{};
  /// Merge mode: throw instead of simulating when the cache holds no
  /// record for a repetition.
  bool forbid_compute = false;
  /// Per-repetition progress: computed reps tick(), served reps
  /// tick_cached() — the reporter's ETA then reflects real work only.
  /// When set, the Runner must NOT also carry a progress pointer.
  exp::Progress* progress = nullptr;
  /// Metrics registry for `exp.reps.*` / per-rep histograms; null or
  /// disabled = no accounting (the engine output is identical either
  /// way — obs is purely observational).
  obs::Registry* metrics = nullptr;
  /// Span profiler for per-(cell,rep) jobs, scenario builds and the
  /// shard merge; null = no spans.
  obs::Profiler* profiler = nullptr;
};

}  // namespace csmabw::serve
