#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "stats/rng.hpp"
#include "trace/event.hpp"
#include "trace/query/mapped.hpp"
#include "trace/writer.hpp"
#include "util/require.hpp"

namespace csmabw::trace {
namespace {

namespace fs = std::filesystem;

fs::path temp_file(const std::string& name) {
  return fs::temp_directory_path() / ("csmabw-trace-io-" + name);
}

/// Every event of a mapped trace, in file order.
std::vector<TraceEvent> read_all(const MappedTrace& trace) {
  std::vector<TraceEvent> events;
  trace.scan([&](const TraceEvent& e) { events.push_back(e); });
  return events;
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The bytes a stream-mode writer produces for `events`.
std::string encode(const std::vector<TraceEvent>& events) {
  std::stringstream buffer;
  TraceWriter writer(buffer);
  for (const TraceEvent& e : events) {
    writer.on_event(e);
  }
  writer.close();
  return buffer.str();
}

/// A pseudo-random but deterministic event stream exercising every kind,
/// negative aux deltas, zero timestamps and large ids.
std::vector<TraceEvent> sample_events(int n) {
  stats::Rng rng(42);
  std::vector<TraceEvent> events;
  std::int64_t t = 0;
  for (int i = 0; i < n; ++i) {
    TraceEvent e;
    t += rng.uniform_int(0, 2000000);
    e.time = TimeNs::ns(t);
    e.kind = static_cast<EventKind>(rng.uniform_int(1, kEventKindCount));
    e.station = static_cast<std::uint16_t>(rng.uniform_int(0, 5));
    e.packet = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)) *
               static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
    // aux before, at, and after the event time.
    e.aux = TimeNs::ns(t + rng.uniform_int(-1000000, 1000000));
    e.flow = rng.uniform_int(-3, 1200);
    e.seq = rng.uniform_int(0, 100000);
    e.value = rng.uniform_int(-2, 1500);
    events.push_back(e);
  }
  return events;
}

TEST(TraceIo, RoundTripsEventsAndMeta) {
  const fs::path path = temp_file("roundtrip.cctrace");
  TraceMeta meta;
  meta.cell = 7;
  meta.repetition = 19;
  meta.train_n = 600;
  meta.train_size = 1500;
  meta.train_gap_ns = 2400000;
  meta.seed = 123456789;
  meta.label = "phy=dot11b_short;contenders=1x poisson:rate=2M";

  const std::vector<TraceEvent> events = sample_events(5000);
  {
    TraceWriter writer(path.string(), meta);
    for (const TraceEvent& e : events) {
      writer.on_event(e);
    }
    writer.close();
    EXPECT_EQ(writer.events_written(), events.size());
    EXPECT_GE(writer.pages_written(), 1u);
  }

  const MappedTrace trace(path.string());
  EXPECT_EQ(trace.meta(), meta);
  EXPECT_EQ(trace.events(), events.size());
  const std::vector<TraceEvent> decoded = read_all(trace);
  // The round-trip property: the decoded sequence IS the written one.
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(decoded[i], events[i]) << "event " << i;
  }
  fs::remove(path);
}

TEST(TraceIo, TinyPagesStreamAndDecodeIndependently) {
  const fs::path path = temp_file("paged.cctrace");
  const std::vector<TraceEvent> events = sample_events(1000);
  std::uint64_t pages_written = 0;
  {
    // A 64-byte page target forces hundreds of pages.
    TraceWriter writer(path.string(), TraceMeta{}, /*page_bytes=*/64);
    for (const TraceEvent& e : events) {
      writer.on_event(e);
    }
    writer.close();
    pages_written = writer.pages_written();
    EXPECT_GT(pages_written, 100u);
  }
  const MappedTrace trace(path.string());
  ASSERT_EQ(trace.pages().size(), pages_written);
  EXPECT_EQ(read_all(trace), events);
  // Back to front: each page decodes on its own, from its base time.
  std::size_t end = events.size();
  for (std::size_t p = trace.pages().size(); p-- > 0;) {
    const std::vector<TraceEvent> page = trace.decode_page(p);
    ASSERT_LE(page.size(), end);
    const std::vector<TraceEvent> expected(
        events.begin() + static_cast<std::ptrdiff_t>(end - page.size()),
        events.begin() + static_cast<std::ptrdiff_t>(end));
    EXPECT_EQ(page, expected) << "page " << p;
    end -= page.size();
  }
  EXPECT_EQ(end, 0u);
  fs::remove(path);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  const fs::path path = temp_file("empty.cctrace");
  const std::string bytes = encode({});
  write_bytes(path, bytes);
  const MappedTrace trace(path.string());
  EXPECT_EQ(trace.file_size(), bytes.size());  // the header alone
  EXPECT_EQ(trace.pages().size(), 0u);
  EXPECT_EQ(trace.events(), 0u);
  EXPECT_TRUE(read_all(trace).empty());
  fs::remove(path);
}

TEST(TraceIo, StreamModeMatchesFileMode) {
  const std::vector<TraceEvent> events = sample_events(200);
  const fs::path path = temp_file("filemode.cctrace");
  {
    TraceWriter writer(path.string());
    for (const TraceEvent& e : events) {
      writer.on_event(e);
    }
    writer.close();
  }
  std::ifstream in(path, std::ios::binary);
  const std::string file_bytes{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
  EXPECT_EQ(encode(events), file_bytes);
  EXPECT_EQ(read_all(MappedTrace(path.string())), events);
  fs::remove(path);
}

TEST(TraceIo, RejectsForeignAndCorruptInput) {
  const fs::path path = temp_file("foreign.cctrace");
  for (const std::string& bytes :
       {std::string("definitely not a trace file at all"), std::string()}) {
    write_bytes(path, bytes);
    // Both I/O paths reject it: mmap and the buffered fallback.
    for (const bool use_mmap : {true, false}) {
      MappedTraceOptions opts;
      opts.use_mmap = use_mmap;
      EXPECT_THROW(MappedTrace(path.string(), opts), util::PreconditionError)
          << "input of " << bytes.size() << " bytes, mmap " << use_mmap;
    }
  }
  fs::remove(path);
}

TEST(TraceIo, RejectsUnsupportedVersion) {
  const fs::path path = temp_file("version99.cctrace");
  std::string bytes = encode({});
  bytes[4] = 99;  // version field, little-endian low byte
  write_bytes(path, bytes);
  try {
    const MappedTrace trace(path.string());
    FAIL() << "expected a version error";
  } catch (const util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("version 99"), std::string::npos)
        << e.what();
  }
  fs::remove(path);
}

TEST(TraceIo, RejectsTruncatedPage) {
  const fs::path path = temp_file("truncated.cctrace");
  const std::string bytes = encode(sample_events(50));
  write_bytes(path, bytes.substr(0, bytes.size() - 7));
  EXPECT_THROW(MappedTrace(path.string()), util::PreconditionError);
  fs::remove(path);
}

TEST(TraceIo, WriteAfterCloseThrows) {
  std::stringstream buffer;
  TraceWriter writer(buffer);
  writer.close();
  EXPECT_THROW(writer.on_event(TraceEvent{}), util::PreconditionError);
}

TEST(TraceIo, TrainTracePathIsDeterministic) {
  EXPECT_EQ(train_trace_path("d", 3, 17), "d/cell-00003-rep-000017.cctrace");
  EXPECT_EQ(train_trace_path("d/", 3, 17),
            "d/cell-00003-rep-000017.cctrace");
  EXPECT_EQ(train_trace_path("", 0, 0), "cell-00000-rep-000000.cctrace");
  EXPECT_THROW((void)train_trace_path("d", -1, 0), util::PreconditionError);
}

TEST(TraceIo, KindNamesRoundTrip) {
  for (int k = 1; k <= kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    EXPECT_EQ(parse_kind(kind_name(kind)), kind);
  }
  EXPECT_THROW((void)parse_kind("no_such_kind"), util::PreconditionError);
}

}  // namespace
}  // namespace csmabw::trace
