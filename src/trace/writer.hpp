#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "trace/event.hpp"
#include "trace/format.hpp"

namespace csmabw::trace {

/// Provenance carried in a trace file's header: which campaign cell and
/// repetition the recording came from, the probe-train shape, and a
/// free-form label (scenario name or grammar).  All fields optional —
/// generic recordings leave the defaults.
struct TraceMeta {
  int cell = -1;         ///< campaign cell index; -1 = not a campaign run
  int repetition = -1;   ///< repetition within the cell; -1 = n/a
  int train_n = 0;       ///< probe-train length; 0 = not a train run
  int train_size = 0;    ///< probe packet size (bytes)
  std::int64_t train_gap_ns = 0;  ///< probe input gap g_I
  std::uint64_t seed = 0;         ///< scenario seed of the recorded run
  std::string label;              ///< scenario label / grammar, free-form

  friend bool operator==(const TraceMeta&, const TraceMeta&) = default;
};

/// Buffered binary trace writer (see trace/format.hpp for the layout).
///
/// Implements TraceSink so it plugs directly into a simulator tap:
/// events append to an in-memory page that flushes to the stream once it
/// exceeds `page_bytes`, so multi-GB campaign traces stream with bounded
/// memory.  Every page carries the skip-index summary the analytics
/// scan prunes with.  Not thread-safe: one writer per (cell, repetition)
/// run.
class TraceWriter final : public TraceSink {
 public:
  /// Opens `path` (truncates) and writes the header.  Throws
  /// std::runtime_error when the file cannot be opened.
  explicit TraceWriter(const std::string& path, TraceMeta meta = {},
                       std::size_t page_bytes = 0);
  /// Streams to an existing ostream (not owned).
  explicit TraceWriter(std::ostream& out, TraceMeta meta = {},
                       std::size_t page_bytes = 0);

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  ~TraceWriter() override;

  void on_event(const TraceEvent& event) override;

  /// Flushes the partial page and (in file mode) closes the file.
  /// Idempotent; called by the destructor.  Writing after close throws.
  void close();

  [[nodiscard]] std::uint64_t events_written() const { return events_; }
  [[nodiscard]] std::uint64_t pages_written() const { return pages_; }

 private:
  void write_header(const TraceMeta& meta);
  void flush_page();

  std::ofstream file_;
  std::ostream* out_;  // &file_, or the borrowed stream
  std::size_t page_limit_;
  std::vector<unsigned char> page_;
  std::uint32_t page_events_ = 0;
  std::int64_t page_base_time_ = 0;  ///< delta base of the open page
  std::int64_t prev_time_ = 0;       ///< previous event's absolute time
  format::PageSummary summary_;      ///< skip-index of the open page
  std::uint64_t events_ = 0;
  std::uint64_t pages_ = 0;
  bool closed_ = false;
};

/// The deterministic per-(cell, repetition) trace filename used by
/// campaign recording: `<dir>/cell-CCCCC-rep-RRRRRR.cctrace`.
[[nodiscard]] std::string train_trace_path(const std::string& dir, int cell,
                                           int repetition);

}  // namespace csmabw::trace
