#include "sim/event_queue.hpp"

namespace csmabw::sim {

EventQueue::~EventQueue() {
  // Every heap record is a pending callback: none can be cancelled.
  for (const HeapRecord& r : heap_) {
    Slot& s = slot(static_cast<std::uint32_t>(r.key) & kSlotMask);
    if (s.destroy != nullptr) {
      s.destroy(s.storage);
    }
  }
}

std::uint32_t EventQueue::grow_slab() {
  CSMABW_REQUIRE(slots_used_ <= kSlotMask, "event slot space exhausted");
  if (slots_used_ == chunks_.size() * kChunkSlots) {
    // Default-initialized on purpose: a value-init (`new Slot[n]()`)
    // would memset 16 KiB per chunk, and every field is written before
    // it is first read.
    chunks_.emplace_back(new Slot[kChunkSlots]);
    ++allocations_;
  }
  return slots_used_++;
}

void EventQueue::fire_first_timer(TimeNs& now) {
  Timer& t = timers_[first_];
  now = t.due.at;
  disarm(first_);  // before the callback, which may re-arm it
  t.invoke(t.obj);
}

}  // namespace csmabw::sim
