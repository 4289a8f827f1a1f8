#include "trace/query/mapped.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "util/require.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CSMABW_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define CSMABW_HAVE_MMAP 0
#endif

namespace csmabw::trace {

namespace {

using format::get_i32;
using format::get_i64;
using format::get_u16;
using format::get_u32;
using format::get_u64;

}  // namespace

MappedTrace::MappedTrace(const std::string& path, MappedTraceOptions opts)
    : path_(path) {
  open(opts);
  parse_header();
  index_pages();
}

MappedTrace::~MappedTrace() { unmap(); }

MappedTrace::MappedTrace(MappedTrace&& other) noexcept
    : path_(std::move(other.path_)),
      data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      buffer_(std::move(other.buffer_)),
      meta_(std::move(other.meta_)),
      first_page_offset_(other.first_page_offset_),
      events_(other.events_),
      pages_(std::move(other.pages_)) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

MappedTrace& MappedTrace::operator=(MappedTrace&& other) noexcept {
  if (this != &other) {
    unmap();
    path_ = std::move(other.path_);
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    buffer_ = std::move(other.buffer_);
    meta_ = std::move(other.meta_);
    first_page_offset_ = other.first_page_offset_;
    events_ = other.events_;
    pages_ = std::move(other.pages_);
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

void MappedTrace::unmap() noexcept {
#if CSMABW_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_), size_);
  }
#endif
  data_ = nullptr;
  mapped_ = false;
}

void MappedTrace::throw_corrupt(std::uint64_t offset,
                                const std::string& what) const {
  throw util::PreconditionError("`" + path_ + "` @ byte " +
                                std::to_string(offset) +
                                ": corrupt trace: " + what);
}

void MappedTrace::open(const MappedTraceOptions& opts) {
#if CSMABW_HAVE_MMAP
  if (opts.use_mmap) {
    const int fd = ::open(path_.c_str(), O_RDONLY);
    if (fd >= 0) {
      struct stat st{};
      if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
        size_ = static_cast<std::uint64_t>(st.st_size);
        if (size_ == 0) {
          // mmap rejects zero-length maps; an empty file fails the
          // header check below with a clean message either way.
          ::close(fd);
          throw util::PreconditionError("`" + path_ + "` @ byte 0: " +
                                        "trace is empty");
        }
        void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
        // The mapping keeps the pages alive; the descriptor can go.
        ::close(fd);
        if (map != MAP_FAILED) {
          data_ = static_cast<const unsigned char*>(map);
          mapped_ = true;
          return;
        }
      } else {
        ::close(fd);
      }
    }
    // Fall through to the buffered path, which reports open failures.
  }
#else
  (void)opts;
#endif
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    throw std::runtime_error("MappedTrace: cannot open '" + path_ + "'");
  }
  in.seekg(0, std::ios::end);
  size_ = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  buffer_.resize(size_);
  in.read(reinterpret_cast<char*>(buffer_.data()),
          static_cast<std::streamsize>(size_));
  if (static_cast<std::uint64_t>(in.gcount()) != size_) {
    throw std::runtime_error("MappedTrace: short read on '" + path_ + "'");
  }
  data_ = buffer_.data();
  mapped_ = false;
}

void MappedTrace::parse_header() {
  if (size_ < 12) {
    throw_corrupt(0, size_ == 0 ? "trace is empty" : "header truncated");
  }
  if (std::memcmp(data_, format::kMagic, 4) != 0) {
    throw_corrupt(0, "not a trace file (bad magic; expected \"CCTR\")");
  }
  const std::uint16_t version = get_u16(data_ + 4);
  if (version != format::kFormatVersion) {
    throw util::PreconditionError(
        "`" + path_ + "` @ byte 0: unsupported trace format version " +
        std::to_string(version) + " (this reader knows only version " +
        std::to_string(format::kFormatVersion) +
        "); re-record the trace with this build");
  }
  const std::uint32_t header_bytes = get_u32(data_ + 8);
  if (header_bytes < 48 || header_bytes > format::kMaxHeaderBytes ||
      header_bytes > size_) {
    throw_corrupt(0, "implausible header size " +
                         std::to_string(header_bytes));
  }
  const unsigned char* rest = data_ + 12;
  meta_.cell = get_i32(rest);
  meta_.repetition = get_i32(rest + 4);
  meta_.train_n = get_i32(rest + 8);
  meta_.train_size = get_i32(rest + 12);
  meta_.train_gap_ns = get_i64(rest + 16);
  meta_.seed = get_u64(rest + 24);
  const std::uint32_t label_len = get_u32(rest + 32);
  if (48 + static_cast<std::uint64_t>(label_len) > header_bytes) {
    throw_corrupt(0, "trace label overruns the header");
  }
  meta_.label.assign(reinterpret_cast<const char*>(rest + 36), label_len);
  // parse_header leaves the cursor for index_pages in pages_ walking
  // from header_bytes; remember it via the first page's offset.
  pages_.clear();
  events_ = 0;
  first_page_offset_ = header_bytes;
}

void MappedTrace::index_pages() {
  std::uint64_t off = first_page_offset_;
  while (off < size_) {
    if (size_ - off < format::kPageHeaderBytes) {
      throw_corrupt(off, "truncated page header");
    }
    const unsigned char* h = data_ + off;
    if (get_u32(h) != format::kPageMagic) {
      throw_corrupt(off, "bad page magic");
    }
    PageInfo p;
    p.header_offset = off;
    p.payload_bytes = get_u32(h + 4);
    p.event_count = get_u32(h + 8);
    p.base_time_ns = get_i64(h + 12);
    if (p.event_count == 0 || p.payload_bytes == 0) {
      throw_corrupt(off, "empty page");
    }
    if (p.payload_bytes > format::kMaxPageBytes) {
      throw_corrupt(off, "implausible page size " +
                             std::to_string(p.payload_bytes));
    }
    p.summary = format::get_summary(h + format::kPageSummaryOffset);
    if (!p.summary.valid()) {
      throw_corrupt(
          off, "invalid page summary (kind mask " +
                   std::to_string(p.summary.kind_mask) + ", stations " +
                   std::to_string(p.summary.min_station) + ".." +
                   std::to_string(p.summary.max_station) + ", time " +
                   std::to_string(p.summary.min_time_ns) + ".." +
                   std::to_string(p.summary.max_time_ns) + " ns)");
    }
    p.payload_offset = off + format::kPageHeaderBytes;
    if (size_ - p.payload_offset < p.payload_bytes) {
      throw_corrupt(off, "trace page truncated");
    }
    events_ += p.event_count;
    off = p.payload_offset + p.payload_bytes;
    pages_.push_back(p);
  }
}

const PageInfo& MappedTrace::page_checked(std::size_t i) const {
  CSMABW_REQUIRE(i < pages_.size(),
                 "page index " + std::to_string(i) + " out of range (`" +
                     path_ + "` has " + std::to_string(pages_.size()) +
                     " pages)");
  return pages_[i];
}

std::vector<TraceEvent> MappedTrace::decode_page(
    std::size_t page_index) const {
  std::vector<TraceEvent> events;
  events.reserve(page_checked(page_index).event_count);
  scan_page(page_index, [&](const TraceEvent& e) { events.push_back(e); });
  return events;
}

}  // namespace csmabw::trace
