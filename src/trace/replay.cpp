#include "trace/replay.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <tuple>

#include "trace/format.hpp"
#include "trace/query/mapped.hpp"
#include "util/require.hpp"

namespace csmabw::trace {

void PacketReconstructor::on_event(const TraceEvent& event) {
  const int ki = kind_index(event.kind);
  CSMABW_REQUIRE(ki >= 0 && ki < kEventKindCount, "unknown event kind");
  ++counts_[static_cast<std::size_t>(ki)];

  switch (event.kind) {
    case EventKind::kEnqueue: {
      std::deque<mac::Packet>& queue = queues_[event.station];
      mac::Packet p;
      p.id = event.packet;
      p.flow = event.flow;
      p.seq = event.seq;
      p.size_bytes = event.value;
      p.enqueue_time = event.time;
      if (queue.empty()) {
        // The station's queue was empty: the packet heads it at once.
        p.head_time = event.time;
      }
      queue.push_back(p);
      break;
    }
    case EventKind::kTxAttempt: {
      auto it = queues_.find(event.station);
      CSMABW_REQUIRE(it != queues_.end() && !it->second.empty(),
                     "trace replay: tx attempt with an empty queue "
                     "(filtered or truncated trace?)");
      mac::Packet& head = it->second.front();
      CSMABW_REQUIRE(head.id == event.packet,
                     "trace replay: tx attempt for a non-head packet "
                     "(filtered or truncated trace?)");
      if (event.value == 0) {
        head.first_tx_time = event.time;
      }
      break;
    }
    case EventKind::kSuccess:
    case EventKind::kDrop: {
      auto it = queues_.find(event.station);
      CSMABW_REQUIRE(it != queues_.end() && !it->second.empty(),
                     "trace replay: service completion with an empty "
                     "queue (filtered or truncated trace?)");
      std::deque<mac::Packet>& queue = it->second;
      mac::Packet head = queue.front();
      queue.pop_front();
      CSMABW_REQUIRE(head.id == event.packet,
                     "trace replay: service completion for a non-head "
                     "packet (filtered or truncated trace?)");
      head.depart_time = event.aux;
      head.retries = event.value;
      head.dropped = event.kind == EventKind::kDrop;
      if (!queue.empty()) {
        // Successor head instant: the recursion DcfStation applies live.
        queue.front().head_time =
            std::max(event.aux, queue.front().enqueue_time);
      }
      packets_.push_back(ReplayPacket{event.station, head});
      break;
    }
    default:
      break;  // contention/depth/channel events carry no packet state
  }
}

std::size_t PacketReconstructor::pending() const {
  std::size_t n = 0;
  for (const auto& [station, queue] : queues_) {
    n += queue.size();
  }
  return n;
}

core::TrainRun replay_train(const std::vector<ReplayPacket>& packets,
                            int flow) {
  core::TrainRun run;
  for (const ReplayPacket& rp : packets) {
    if (rp.packet.flow == flow) {
      run.packets.push_back(rp.packet);
      run.any_dropped = run.any_dropped || rp.packet.dropped;
    }
  }
  CSMABW_REQUIRE(!run.packets.empty(), "trace has no packets of flow " +
                                           std::to_string(flow));
  std::sort(run.packets.begin(), run.packets.end(),
            [](const mac::Packet& a, const mac::Packet& b) {
              return a.seq < b.seq;
            });
  for (std::size_t i = 0; i < run.packets.size(); ++i) {
    CSMABW_REQUIRE(run.packets[i].seq == static_cast<int>(i),
                   "flow " + std::to_string(flow) +
                       " has a sequence gap at seq " + std::to_string(i));
  }
  return run;
}

core::TrainRun replay_train_file(const std::string& path, int flow) {
  PacketReconstructor rec;
  MappedTrace(path).scan([&](const TraceEvent& e) { rec.on_event(e); });
  return replay_train(rec.packets(), flow);
}

// ----------------------------------------------------------- list_traces

std::vector<TraceFile> list_traces(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    throw std::runtime_error("list_traces: '" + dir +
                             "' is not a directory");
  }
  std::vector<TraceFile> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file() ||
        entry.path().extension() != format::kTraceExtension) {
      continue;
    }
    TraceFile f;
    f.path = entry.path().string();
    f.meta = MappedTrace(f.path).meta();
    files.push_back(std::move(f));
  }
  std::sort(files.begin(), files.end(),
            [](const TraceFile& a, const TraceFile& b) {
              return std::tie(a.meta.cell, a.meta.repetition, a.path) <
                     std::tie(b.meta.cell, b.meta.repetition, b.path);
            });
  return files;
}

}  // namespace csmabw::trace
