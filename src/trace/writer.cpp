#include "trace/writer.hpp"

#include <cstdio>
#include <stdexcept>

#include "trace/codec.hpp"
#include "trace/format.hpp"
#include "util/require.hpp"

namespace csmabw::trace {

namespace {

using format::put_i32;
using format::put_i64;
using format::put_u16;
using format::put_u32;
using format::put_u64;

std::size_t checked_page_limit(std::size_t page_bytes) {
  const std::size_t limit =
      page_bytes != 0 ? page_bytes : format::kDefaultPageBytes;
  // Half the reader's cap: a page may overshoot its target by one
  // encoded event, and the cap must still hold with margin.
  CSMABW_REQUIRE(limit <= format::kMaxPageBytes / 2,
                 "trace page size exceeds the format's page cap");
  return limit;
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path, TraceMeta meta,
                         std::size_t page_bytes)
    : file_(path, std::ios::binary),
      out_(&file_),
      page_limit_(checked_page_limit(page_bytes)) {
  if (!file_) {
    throw std::runtime_error("TraceWriter: cannot open '" + path + "'");
  }
  write_header(meta);
}

TraceWriter::TraceWriter(std::ostream& out, TraceMeta meta,
                         std::size_t page_bytes)
    : out_(&out), page_limit_(checked_page_limit(page_bytes)) {
  write_header(meta);
}

TraceWriter::~TraceWriter() {
  try {
    close();
  } catch (...) {
    // A destructor must not throw; explicit close() reports the failure.
  }
}

void TraceWriter::write_header(const TraceMeta& meta) {
  CSMABW_REQUIRE(48 + meta.label.size() <= format::kMaxHeaderBytes,
                 "trace label too long");
  std::vector<unsigned char> header;
  header.reserve(48 + meta.label.size());
  for (char c : format::kMagic) {
    header.push_back(static_cast<unsigned char>(c));
  }
  put_u16(header, format::kFormatVersion);
  put_u16(header, 0);  // reserved
  put_u32(header, 0);  // header_bytes, patched below
  put_i32(header, meta.cell);
  put_i32(header, meta.repetition);
  put_i32(header, meta.train_n);
  put_i32(header, meta.train_size);
  put_i64(header, meta.train_gap_ns);
  put_u64(header, meta.seed);
  put_u32(header, static_cast<std::uint32_t>(meta.label.size()));
  for (char c : meta.label) {
    header.push_back(static_cast<unsigned char>(c));
  }
  const auto total = static_cast<std::uint32_t>(header.size());
  for (int i = 0; i < 4; ++i) {
    header[8 + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(total >> (8 * i));
  }
  out_->write(reinterpret_cast<const char*>(header.data()),
              static_cast<std::streamsize>(header.size()));
}

void TraceWriter::on_event(const TraceEvent& event) {
  CSMABW_REQUIRE(!closed_, "TraceWriter used after close()");
  if (page_events_ == 0) {
    page_base_time_ = prev_time_;
    summary_ = format::PageSummary{};
  }
  summary_.add(static_cast<std::uint8_t>(event.kind), event.station,
               event.time.count());
  codec::encode_event(page_, event, &prev_time_);
  ++page_events_;
  ++events_;
  if (page_.size() >= page_limit_) {
    flush_page();
  }
}

void TraceWriter::flush_page() {
  if (page_events_ == 0) {
    return;
  }
  std::vector<unsigned char> header;
  header.reserve(format::kPageHeaderBytes);
  put_u32(header, format::kPageMagic);
  put_u32(header, static_cast<std::uint32_t>(page_.size()));
  put_u32(header, page_events_);
  put_i64(header, page_base_time_);
  format::put_summary(header, summary_);
  out_->write(reinterpret_cast<const char*>(header.data()),
              static_cast<std::streamsize>(header.size()));
  out_->write(reinterpret_cast<const char*>(page_.data()),
              static_cast<std::streamsize>(page_.size()));
  page_.clear();
  page_events_ = 0;
  ++pages_;
}

void TraceWriter::close() {
  if (closed_) {
    return;
  }
  flush_page();
  out_->flush();
  if (!*out_) {
    closed_ = true;  // do not throw again from the destructor
    throw std::runtime_error("TraceWriter: write failed");
  }
  if (out_ == &file_) {
    file_.close();
  }
  closed_ = true;
}

std::string train_trace_path(const std::string& dir, int cell,
                             int repetition) {
  CSMABW_REQUIRE(cell >= 0 && repetition >= 0,
                 "cell and repetition must be >= 0");
  char name[64];
  std::snprintf(name, sizeof(name), "cell-%05d-rep-%06d%s", cell,
                repetition, format::kTraceExtension);
  if (dir.empty()) {
    return name;
  }
  return dir.back() == '/' ? dir + name : dir + "/" + name;
}

}  // namespace csmabw::trace
