#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/codec.hpp"
#include "trace/event.hpp"
#include "trace/format.hpp"
#include "trace/writer.hpp"  // TraceMeta

namespace csmabw::trace {

/// One page of a mapped trace: where its payload lives in the file plus
/// everything the scan needs to skip or decode it without touching the
/// payload first.
struct PageInfo {
  std::uint64_t header_offset = 0;   ///< byte offset of the page header
  std::uint64_t payload_offset = 0;  ///< byte offset of the payload
  std::uint32_t payload_bytes = 0;
  std::uint32_t event_count = 0;
  std::int64_t base_time_ns = 0;     ///< delta base of the page
  format::PageSummary summary;       ///< the page's skip-index
};

struct MappedTraceOptions {
  /// POSIX mmap the file read-only; false (or mmap failure) falls back
  /// to one buffered read of the whole file.  Only tests turn it off,
  /// to reach the fallback.
  bool use_mmap = true;
};

/// The trace reader: zero-copy, random access.
///
/// The whole file is mapped read-only (buffered read as fallback) and
/// the page directory — offsets, event counts, skip-index summaries —
/// is built eagerly by walking page headers only, so opening a
/// multi-GB trace touches a few bytes per 64 KiB page.  Pages then
/// decode independently, in place, in any order, which is what the
/// parallel query engine schedules over; scan() replays the whole file
/// in event order.  Bad input (not a trace, a version other than
/// format::kFormatVersion, corruption) reports via
/// util::PreconditionError naming the file path and byte offset.
class MappedTrace {
 public:
  explicit MappedTrace(const std::string& path,
                       MappedTraceOptions opts = {});
  ~MappedTrace();

  MappedTrace(MappedTrace&& other) noexcept;
  MappedTrace& operator=(MappedTrace&& other) noexcept;
  MappedTrace(const MappedTrace&) = delete;
  MappedTrace& operator=(const MappedTrace&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const TraceMeta& meta() const { return meta_; }
  [[nodiscard]] std::uint64_t file_size() const { return size_; }
  /// True when the file is served by mmap (false: buffered fallback).
  [[nodiscard]] bool mapped() const { return mapped_; }

  [[nodiscard]] const std::vector<PageInfo>& pages() const {
    return pages_;
  }
  /// Total event count (from the page directory; no payload decode).
  [[nodiscard]] std::uint64_t events() const { return events_; }

  /// Decodes page `page_index` in place, invoking fn(const TraceEvent&)
  /// for each event in order.  Throws on corrupt payload bytes.
  template <typename Fn>
  void scan_page(std::size_t page_index, Fn&& fn) const {
    const PageInfo& p = page_checked(page_index);
    const unsigned char* payload = data_ + p.payload_offset;
    std::size_t pos = 0;
    std::int64_t prev_time = p.base_time_ns;
    TraceEvent e;
    for (std::uint32_t i = 0; i < p.event_count; ++i) {
      const char* err = codec::decode_event(payload, p.payload_bytes,
                                            &pos, &prev_time, &e);
      if (err != nullptr) {
        throw_corrupt(p.header_offset, err);
      }
      fn(static_cast<const TraceEvent&>(e));
    }
    if (pos != p.payload_bytes) {
      throw_corrupt(p.header_offset, "page has trailing bytes");
    }
  }

  /// scan_page over every page in file order: the whole event stream.
  template <typename Fn>
  void scan(Fn&& fn) const {
    for (std::size_t p = 0; p < pages_.size(); ++p) {
      scan_page(p, fn);
    }
  }

  /// scan_page into a vector (tests, small analyses).
  [[nodiscard]] std::vector<TraceEvent> decode_page(
      std::size_t page_index) const;

 private:
  void open(const MappedTraceOptions& opts);
  void parse_header();
  void index_pages();
  void unmap() noexcept;
  [[nodiscard]] const PageInfo& page_checked(std::size_t i) const;
  [[noreturn]] void throw_corrupt(std::uint64_t offset,
                                  const std::string& what) const;

  std::string path_;
  const unsigned char* data_ = nullptr;
  std::uint64_t size_ = 0;
  bool mapped_ = false;
  std::vector<unsigned char> buffer_;  // fallback storage
  TraceMeta meta_;
  std::uint64_t first_page_offset_ = 0;
  std::uint64_t events_ = 0;
  std::vector<PageInfo> pages_;
};

}  // namespace csmabw::trace
