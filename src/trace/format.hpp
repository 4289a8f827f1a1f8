#pragma once

// On-disk binary trace format (shared by TraceWriter and MappedTrace).
//
// A trace file is a fixed header followed by a sequence of pages, each
// a small header plus a varint/delta-packed run of events:
//
//   file   := header page*
//   header := magic "CCTR" | u16 version | u16 reserved
//           | u32 header_bytes                  (total, incl. the label)
//           | i32 cell | i32 repetition         (-1 = not a campaign run)
//           | i32 train_n | i32 train_size      (0 = not a train run)
//           | i64 train_gap_ns | u64 seed
//           | u32 label_len | label bytes
//   page   := u32 page_magic | u32 payload_bytes | u32 event_count
//           | i64 base_time_ns                  (delta base, see below)
//           | summary
//           | payload
//
// Every page carries a fixed 24-byte summary between its header and its
// payload — the skip-index the analytics scan uses for predicate
// pushdown (a whole page is skipped when its summary proves no event
// can match):
//
//   summary := u16 kind_mask                    bit (kind - 1) set iff
//                                               the page holds that kind
//            | u16 min_station | u16 max_station  inclusive station range
//            | u16 reserved                     (zero)
//            | i64 min_time_ns | i64 max_time_ns  inclusive time range
//
// A valid summary has kind_mask != 0, min_station <= max_station and
// min_time_ns <= max_time_ns; readers reject anything else as corrupt.
//
// All integers are little-endian.  Events inside a page are packed as
//
//   u8 kind | varint station | svarint time_delta | varint packet
//   | svarint (aux - time) | svarint flow | svarint seq | svarint value
//
// where varint is LEB128 and svarint is zigzag LEB128.  `time_delta` is
// relative to the previous event's time (the page's base_time_ns for the
// first event of a page), so pages decode independently and timestamps —
// nanoseconds since simulation start — cost one or two bytes instead of
// eight.  Readers skip unknown trailing header bytes via header_bytes
// and reject every version but kFormatVersion; adding fields to the
// header or new event kinds bumps the minor semantics only, changing
// the page or event layout bumps `kFormatVersion` (v1 -> v2: the page
// summary above).  Traces are regenerable recordings, so an older file
// is re-recorded rather than read.

#include <cstdint>
#include <vector>

namespace csmabw::trace::format {

inline constexpr char kMagic[4] = {'C', 'C', 'T', 'R'};
inline constexpr std::uint16_t kFormatVersion = 2;
inline constexpr std::uint32_t kPageMagic = 0x47504354;  // "TCPG"
/// Target payload size per page; a page flushes once it grows past this.
inline constexpr std::size_t kDefaultPageBytes = 64 * 1024;
/// Hard plausibility caps the reader enforces BEFORE allocating: a
/// corrupt u32 size field must fail as "corrupt trace", not as a 4 GiB
/// allocation.  The writer rejects page targets above kMaxPageBytes, so
/// every legitimate file decodes within them (a page overshoots its
/// target by at most one encoded event).
inline constexpr std::size_t kMaxPageBytes = 64 * 1024 * 1024;
inline constexpr std::size_t kMaxHeaderBytes = 1024 * 1024;
inline constexpr const char* kTraceExtension = ".cctrace";

/// Page header layout: magic + payload + count + base time, then the
/// summary.
inline constexpr std::size_t kPageSummaryOffset = 20;
inline constexpr std::size_t kPageSummaryBytes = 24;
inline constexpr std::size_t kPageHeaderBytes =
    kPageSummaryOffset + kPageSummaryBytes;

// ----------------------------------------------------- page skip-index

/// Per-page event summary (the skip-index): the exact ranges a scan
/// checks a predicate against before decoding the page.
struct PageSummary {
  std::uint16_t kind_mask = 0;     ///< bit (kind - 1) set iff present
  std::uint16_t min_station = 0;   ///< inclusive
  std::uint16_t max_station = 0;   ///< inclusive
  std::int64_t min_time_ns = 0;    ///< inclusive
  std::int64_t max_time_ns = 0;    ///< inclusive

  /// Structural validity (what readers enforce): a non-empty kind set
  /// and ordered ranges.
  [[nodiscard]] bool valid() const {
    return kind_mask != 0 && min_station <= max_station &&
           min_time_ns <= max_time_ns;
  }

  /// Folds one event into the summary.
  void add(std::uint8_t kind, std::uint16_t station, std::int64_t time_ns) {
    if (kind_mask == 0) {
      min_station = max_station = station;
      min_time_ns = max_time_ns = time_ns;
    } else {
      if (station < min_station) min_station = station;
      if (station > max_station) max_station = station;
      if (time_ns < min_time_ns) min_time_ns = time_ns;
      if (time_ns > max_time_ns) max_time_ns = time_ns;
    }
    kind_mask = static_cast<std::uint16_t>(
        kind_mask | (1u << (kind - 1)));
  }

  friend bool operator==(const PageSummary&, const PageSummary&) = default;
};

// ------------------------------------------- fixed-width little-endian

inline void put_u16(std::vector<unsigned char>& out, std::uint16_t v) {
  out.push_back(static_cast<unsigned char>(v));
  out.push_back(static_cast<unsigned char>(v >> 8));
}

inline void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

inline void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

inline void put_i32(std::vector<unsigned char>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

inline void put_i64(std::vector<unsigned char>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

[[nodiscard]] inline std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

[[nodiscard]] inline std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

[[nodiscard]] inline std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

[[nodiscard]] inline std::int32_t get_i32(const unsigned char* p) {
  return static_cast<std::int32_t>(get_u32(p));
}

[[nodiscard]] inline std::int64_t get_i64(const unsigned char* p) {
  return static_cast<std::int64_t>(get_u64(p));
}

// ------------------------------------------------------- varint packing

inline void put_varint(std::vector<unsigned char>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<unsigned char>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<unsigned char>(v));
}

[[nodiscard]] inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

inline void put_svarint(std::vector<unsigned char>& out, std::int64_t v) {
  put_varint(out, zigzag(v));
}

/// Bounds-checked LEB128 decode; returns false on truncation/overlong.
[[nodiscard]] inline bool get_varint(const unsigned char* data,
                                     std::size_t size, std::size_t* pos,
                                     std::uint64_t* out) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= size) {
      return false;
    }
    const unsigned char byte = data[(*pos)++];
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

/// Unchecked LEB128 decode for the zero-copy scan hot path: reads at
/// most 10 bytes past `*pp`, so the CALLER must guarantee that many
/// readable bytes (see kMaxEncodedEventBytes).  Returns false only on
/// an overlong encoding — same accept/reject semantics as get_varint.
///
/// Deliberately the plain byte loop with the 1-byte case peeled off: a
/// branchless word-at-a-time variant (one 8-byte load, countr_zero for
/// the terminator, parallel 7-bit-group fold) measured 2.5x SLOWER on
/// the page-scan benchmark, because computing the encoded length from
/// the data turns the next varint's load address into a data dependency
/// and stalls the speculative loads the byte loop enjoys — its exit
/// branch predicts almost perfectly since per-field widths are stable
/// across consecutive events.
[[nodiscard]] inline bool get_varint_fast(const unsigned char** pp,
                                          std::uint64_t* out) {
  const unsigned char* p = *pp;
  const std::uint64_t first = static_cast<std::uint64_t>(*p);
  if ((first & 0x80) == 0) {  // the overwhelmingly common 1-byte case
    *out = first;
    *pp = p + 1;
    return true;
  }
  std::uint64_t v = first & 0x7f;
  ++p;
  for (int shift = 7; shift < 64; shift += 7) {
    const unsigned char byte = *p++;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      *pp = p;
      return true;
    }
  }
  return false;
}

/// Upper bound on one encoded event (u8 kind + 7 varints of <= 10 bytes
/// each); the in-place scan uses the checked decoder within this many
/// bytes of a page end and the unchecked one before that.
inline constexpr std::size_t kMaxEncodedEventBytes = 1 + 7 * 10;

// -------------------------------------------------- page summary codec

inline void put_summary(std::vector<unsigned char>& out,
                        const PageSummary& s) {
  put_u16(out, s.kind_mask);
  put_u16(out, s.min_station);
  put_u16(out, s.max_station);
  put_u16(out, 0);  // reserved
  put_i64(out, s.min_time_ns);
  put_i64(out, s.max_time_ns);
}

/// Decodes a summary from `p` (must have kPageSummaryBytes readable).
[[nodiscard]] inline PageSummary get_summary(const unsigned char* p) {
  PageSummary s;
  s.kind_mask = get_u16(p);
  s.min_station = get_u16(p + 2);
  s.max_station = get_u16(p + 4);
  s.min_time_ns = get_i64(p + 8);
  s.max_time_ns = get_i64(p + 16);
  return s;
}

}  // namespace csmabw::trace::format
