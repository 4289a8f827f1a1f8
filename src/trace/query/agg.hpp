#pragma once

// Aggregations of the trace query engine: named reductions over the
// event stream of a trace fleet, chosen on the command line as
// `--agg=name[:key=value,...]` (the same `name:options` grammar the
// measurement-method registry uses).
//
// Execution contract (see trace/query/engine.hpp): the engine opens
// every file, calls make_partial once per work unit, feeds each unit's
// matching events in file order on a worker thread, then absorbs the
// completed partials on the calling thread in deterministic unit order
// and finishes.  Integer accumulators plus ordered absorption make the
// output bit-identical for any worker-thread count.
//
// Aggregations that rebuild packet lifecycles (delay, delay-hist,
// airtime, collisions, qdepth) are stateful across page boundaries and
// declare whole_file(); the engine then never splits a file across
// units.  They also require the match-all predicate — a kind- or
// time-filtered stream has holes the reconstruction would silently
// mis-read, so validate() rejects `--where` for them up front.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/event.hpp"
#include "trace/query/predicate.hpp"
#include "trace/writer.hpp"  // TraceMeta
#include "util/json.hpp"

namespace csmabw::trace::query {

/// Identity of the file a work unit belongs to.
struct FileContext {
  int file_index = 0;  ///< position in the query's (sorted) file list
  std::string path;
  TraceMeta meta;
};

/// Per-unit worker-side state.  Lives on one worker thread; sees the
/// unit's matching events in file order; is then handed back for
/// ordered absorption.
class AggPartial {
 public:
  virtual ~AggPartial() = default;
  virtual void on_event(const TraceEvent& event) = 0;

  [[nodiscard]] const FileContext& context() const { return ctx_; }
  void set_context(FileContext ctx) { ctx_ = std::move(ctx); }

 private:
  FileContext ctx_;
};

/// A named reduction over trace events.  Result rows are tabular
/// (columns() / rows()) so the caller can route them through
/// exp::Collector to console/CSV/JSONL unchanged.
class Aggregation {
 public:
  virtual ~Aggregation() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// True when the aggregation must see whole files in event order.
  [[nodiscard]] virtual bool whole_file() const { return false; }

  /// Rejects predicates the aggregation cannot run under (throws
  /// util::PreconditionError).  Default accepts everything.
  virtual void validate(const QueryPredicate& pred) const { (void)pred; }

  /// Fresh worker-side state for one unit of `ctx`'s file.
  [[nodiscard]] virtual std::unique_ptr<AggPartial> make_partial(
      const FileContext& ctx) const = 0;

  /// Folds one completed partial; called on the query thread in
  /// deterministic unit order (file order, pages ascending).
  virtual void absorb(AggPartial& partial) = 0;

  /// Called once after the last absorb; seals the result rows.
  virtual void finish() {}

  [[nodiscard]] virtual std::vector<std::string> columns() const = 0;
  [[nodiscard]] virtual std::vector<std::vector<util::Value>> rows()
      const = 0;
};

/// Builds an aggregation from its `name[:key=value,...]` spec; throws
/// util::PreconditionError on unknown names or unconsumed options.
///
/// Built-ins:
///   counts      per-station, per-kind event counts (composes with
///               --where)
///   delay       per-cell transient statistics, bit-identical to the
///               live campaign's (options: flow, ks_prefix, steady_tail,
///               tol)
///   delay-hist  access-delay histograms grouped by train position or
///               station (options: by=position|station, flow, lo_ms,
///               hi_ms, bins)
///   airtime     per-station channel-occupation time and share
///   collisions  pairwise collision-involvement matrix
///   qdepth      per-station time-weighted queue-depth timeline
///               (option: bucket_ms)
[[nodiscard]] std::unique_ptr<Aggregation> make_aggregation(
    std::string_view spec);

/// One help line per built-in aggregation (for --help / error text).
[[nodiscard]] std::vector<std::string> aggregation_catalog();

}  // namespace csmabw::trace::query
