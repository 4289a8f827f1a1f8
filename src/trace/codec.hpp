#pragma once

// The one event codec of the wire format (see trace/format.hpp):
// TraceWriter encodes and the MappedTrace page scan decodes through
// these two functions, so what is written is exactly what is read.

#include <cstddef>
#include <cstdint>

#include "trace/event.hpp"
#include "trace/format.hpp"

namespace csmabw::trace::codec {

/// Decodes one event from `data[*pos..size)` into `*out`, advancing
/// `*pos` and `*prev_time` (the running delta base).  Returns nullptr
/// on success, else a static description of the corruption.
///
/// Within kMaxEncodedEventBytes of the payload end this uses the
/// bounds-checked decoder; before that it runs the unchecked fast path
/// (any read stays inside the payload because one event cannot span
/// more than kMaxEncodedEventBytes).
[[nodiscard]] inline const char* decode_event(const unsigned char* data,
                                              std::size_t size,
                                              std::size_t* pos,
                                              std::int64_t* prev_time,
                                              TraceEvent* out) {
  if (*pos >= size) {
    return "page underruns";
  }
  const unsigned char kind = data[(*pos)++];
  if (kind < 1 || kind > kEventKindCount) {
    return "unknown event kind";
  }
  std::uint64_t station = 0;
  std::uint64_t time_delta_z = 0;
  std::uint64_t packet = 0;
  std::uint64_t aux_z = 0;
  std::uint64_t flow_z = 0;
  std::uint64_t seq_z = 0;
  std::uint64_t value_z = 0;
  if (size - *pos >= format::kMaxEncodedEventBytes) {
    const unsigned char* p = data + *pos;
    const bool ok = format::get_varint_fast(&p, &station) &&
                    format::get_varint_fast(&p, &time_delta_z) &&
                    format::get_varint_fast(&p, &packet) &&
                    format::get_varint_fast(&p, &aux_z) &&
                    format::get_varint_fast(&p, &flow_z) &&
                    format::get_varint_fast(&p, &seq_z) &&
                    format::get_varint_fast(&p, &value_z);
    if (!ok) {
      return "event varint truncated";
    }
    *pos = static_cast<std::size_t>(p - data);
  } else {
    const bool ok =
        format::get_varint(data, size, pos, &station) &&
        format::get_varint(data, size, pos, &time_delta_z) &&
        format::get_varint(data, size, pos, &packet) &&
        format::get_varint(data, size, pos, &aux_z) &&
        format::get_varint(data, size, pos, &flow_z) &&
        format::get_varint(data, size, pos, &seq_z) &&
        format::get_varint(data, size, pos, &value_z);
    if (!ok) {
      return "event varint truncated";
    }
  }
  if (station > 0xffff) {
    return "station out of range";
  }
  out->kind = static_cast<EventKind>(kind);
  out->station = static_cast<std::uint16_t>(station);
  *prev_time += format::unzigzag(time_delta_z);
  out->time = TimeNs::ns(*prev_time);
  out->packet = packet;
  out->aux = TimeNs::ns(*prev_time + format::unzigzag(aux_z));
  out->flow = static_cast<std::int32_t>(format::unzigzag(flow_z));
  out->seq = static_cast<std::int32_t>(format::unzigzag(seq_z));
  out->value = static_cast<std::int32_t>(format::unzigzag(value_z));
  return nullptr;
}

/// Appends one encoded event to `page`, advancing `*prev_time` — the
/// writer-side twin of decode_event.
inline void encode_event(std::vector<unsigned char>& page,
                         const TraceEvent& event, std::int64_t* prev_time) {
  page.push_back(static_cast<unsigned char>(event.kind));
  format::put_varint(page, event.station);
  format::put_svarint(page, event.time.count() - *prev_time);
  format::put_varint(page, event.packet);
  format::put_svarint(page, event.aux.count() - event.time.count());
  format::put_svarint(page, event.flow);
  format::put_svarint(page, event.seq);
  format::put_svarint(page, event.value);
  *prev_time = event.time.count();
}

}  // namespace csmabw::trace::codec
