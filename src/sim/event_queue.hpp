#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "util/require.hpp"
#include "util/time.hpp"

namespace csmabw::sim {

/// Names a re-armable timer of one EventQueue (see EventQueue::add_timer).
using TimerId = std::uint32_t;

/// Time-ordered event queue: one-shot events in a slab-pooled heap, plus
/// a few re-armable timers beside it.  The hot path is allocation-free.
///
/// Every event — a one-shot schedule or a timer arm — draws a sequence
/// number from one monotone counter, and events fire in (time, seq)
/// order, so equal times fire in scheduling order.  Deterministic replay
/// requires that total order, and every operation preserves it exactly.
///
/// One-shot events: callbacks live inline in 64-byte slots of a chunked
/// slab (chunks never move, so callbacks may be non-trivially copyable);
/// a 4-ary binary-hole heap orders lightweight (time, seq, slot)
/// records.  Freed slots are recycled through a free list, so in steady
/// state — once the slab and heap have grown to the high-water mark —
/// scheduling and firing perform zero heap allocations.  Callbacks
/// larger than `kInlineCallbackBytes` are a compile error: there is
/// deliberately no heap fallback.  A scheduled event cannot be
/// cancelled, so every heap record is live.
///
/// Timers: `add_timer` binds a member function once, at set-up.  Each
/// `arm` takes a fresh sequence number and replaces the timer's pending
/// firing, so arming a timer orders exactly like cancelling its last
/// one-shot event and scheduling a new one — without touching the heap
/// or the slab.  A timer is disarmed before its callback runs, so the
/// callback may re-arm it.  `arm` and `disarm` never allocate.
class EventQueue {
 public:
  /// Inline storage per event; fits every in-tree callback (lambdas
  /// capturing a few pointers — four words).  Oversized captures are a
  /// compile error rather than a silent heap fallback.
  static constexpr std::size_t kInlineCallbackBytes = 32;

  EventQueue() = default;
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at `at`.  `fn` is moved into the slot's inline
  /// storage — no allocation, no type-erasure through std::function.
  template <class F>
  void schedule(TimeNs at, F fn) {
    static_assert(std::is_invocable_r_v<void, F&>,
                  "event callback must be invocable with no arguments");
    static_assert(sizeof(F) <= kInlineCallbackBytes,
                  "event callback too large for inline storage "
                  "(no heap fallback — shrink the capture)");
    static_assert(alignof(F) <= alignof(std::max_align_t),
                  "over-aligned event callbacks are not supported");
    static_assert(std::is_nothrow_move_constructible_v<F>,
                  "event callback move must not throw");
    if constexpr (std::is_constructible_v<bool, const F&>) {
      CSMABW_REQUIRE(static_cast<bool>(fn), "cannot schedule a null event");
    }
    const std::uint32_t idx = acquire_slot();
    Slot& s = slot(idx);
    ::new (static_cast<void*>(s.storage)) F(std::move(fn));
    s.invoke = [](void* p) { (*static_cast<F*>(p))(); };
    if constexpr (std::is_trivially_destructible_v<F>) {
      s.destroy = nullptr;
    } else {
      s.destroy = [](void* p) { static_cast<F*>(p)->~F(); };
    }
    commit(at, idx);
  }

  /// Schedules a member-function call `(obj.*Method)()` at `at` — direct
  /// dispatch on the pooled event: the slot stores only the object
  /// pointer and the trampoline is a per-(Method) function, with no
  /// lambda or functor object in between.
  template <auto Method, class T>
  void schedule_member(TimeNs at, T& obj) {
    static_assert(std::is_invocable_r_v<void, decltype(Method), T&>,
                  "Method must be callable on T with no arguments");
    const std::uint32_t idx = acquire_slot();
    Slot& s = slot(idx);
    ::new (static_cast<void*>(s.storage)) T*(&obj);
    s.invoke = [](void* p) { ((*static_cast<T**>(p))->*Method)(); };
    s.destroy = nullptr;
    commit(at, idx);
  }

  /// Registers a disarmed timer that calls `(obj.*Method)()` when it
  /// fires.  Call at set-up: this may allocate.  `obj` must outlive
  /// every firing.
  template <auto Method, class T>
  TimerId add_timer(T& obj) {
    static_assert(std::is_invocable_r_v<void, decltype(Method), T&>,
                  "Method must be callable on T with no arguments");
    if (timers_.size() == timers_.capacity()) {
      ++allocations_;  // the push below grows the timer vector
    }
    Timer t;
    t.obj = &obj;
    t.invoke = [](void* p) { (static_cast<T*>(p)->*Method)(); };
    timers_.push_back(t);
    return static_cast<TimerId>(timers_.size() - 1);
  }

  /// Arms timer `id` at `at` with a fresh sequence number, replacing
  /// any pending firing.
  void arm(TimerId id, TimeNs at) {
    CSMABW_REQUIRE(id < timers_.size(), "arm() on an unknown timer");
    Timer& t = timers_[id];
    t.armed = true;
    t.due = HeapRecord{at, next_seq() << kSlotBits};
    if (first_ == id) {
      find_first_timer();  // it may have moved behind another timer
    } else if (first_ == kNoTimer || earlier(t.due, timers_[first_].due)) {
      first_ = id;
    }
  }

  /// Drops timer `id`'s pending firing; a no-op when it is not armed.
  void disarm(TimerId id) {
    CSMABW_REQUIRE(id < timers_.size(), "disarm() on an unknown timer");
    timers_[id].armed = false;
    if (first_ == id) {
      find_first_timer();
    }
  }

  [[nodiscard]] bool empty() const {
    return heap_.empty() && first_ == kNoTimer;
  }
  /// Pending events: scheduled one-shot events plus armed timers.
  [[nodiscard]] std::size_t size() const {
    std::size_t armed = 0;
    for (const Timer& t : timers_) {
      armed += t.armed ? 1 : 0;
    }
    return heap_.size() + armed;
  }

  /// Time of the earliest pending event.  Requires !empty().
  [[nodiscard]] TimeNs next_time() const {
    CSMABW_REQUIRE(!empty(), "next_time() on an empty queue");
    return timer_next() ? timers_[first_].due.at : heap_.front().at;
  }

  /// Runs the earliest pending event; returns its time.  Requires
  /// !empty().
  TimeNs pop_and_run() {
    CSMABW_REQUIRE(!empty(), "pop_and_run() on an empty queue");
    TimeNs now;
    run_next(timer_next(), now);
    return now;
  }

  /// Runs the earliest pending event, advancing `now` to its time
  /// first; returns false when the queue is empty.  The single-step
  /// building block for predicate-checked loops.
  bool step(TimeNs& now) {
    if (empty()) {
      return false;
    }
    run_next(timer_next(), now);
    return true;
  }

  /// Runs every event with time <= `deadline` in (time, seq) order,
  /// advancing `now` to each event's time before dispatch.  Returns the
  /// number of events run.  Batching the loop here (instead of the
  /// owner's empty()/next_time()/pop_and_run() dance) decides heap top
  /// versus timer once per event.
  std::uint64_t run_until(TimeNs deadline, TimeNs& now) {
    std::uint64_t ran = 0;
    while (!empty()) {
      const bool timer = timer_next();
      if ((timer ? timers_[first_].due.at : heap_.front().at) > deadline) {
        break;
      }
      run_next(timer, now);
      ++ran;
    }
    return ran;
  }

  /// Runs until the queue drains; same contract as `run_until`.
  std::uint64_t run_all(TimeNs& now) {
    std::uint64_t ran = 0;
    while (step(now)) {
      ++ran;
    }
    return ran;
  }

  // --- introspection for tests and benchmarks ---
  /// Slots the slab has ever allocated (the high-water mark).
  [[nodiscard]] std::size_t slot_capacity() const {
    return chunks_.size() * kChunkSlots;
  }
  /// Number of heap allocations the queue has performed (slab chunks,
  /// heap-vector and timer-vector growth).  Constant across steady-state
  /// operation.
  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }

 private:
  static constexpr std::uint32_t kChunkSlots = 256;  // 16 KiB chunks
  static constexpr std::uint32_t kInvalidSlot = 0xFFFFFFFFu;
  static constexpr TimerId kNoTimer = 0xFFFFFFFFu;

  /// One pooled event: 64 bytes, a single cache line on common targets.
  ///
  /// Deliberately no default member initializers: chunks are allocated
  /// default-initialized (no 16 KiB memset on slab growth), and every
  /// field is written by schedule()/release_slot() before it is first
  /// read.
  struct Slot {
    alignas(std::max_align_t) unsigned char storage[kInlineCallbackBytes];
    void (*invoke)(void*);
    void (*destroy)(void*);
    std::uint32_t next_free;
  };

  // The heap record packs (seq, slot) into one u64 — `key = seq << 24 |
  // slot` — so a record is 16 bytes and the FIFO tie-break is a single
  // integer compare: seq is unique per event, so comparing keys compares
  // seqs and the slot bits can never decide an ordering.  The packing
  // caps one queue instance at 2^24 concurrent slots (1 GiB of live
  // events) and 2^40 total events (~10^12); both are enforced loudly.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);

  /// What the heap orders: trivially movable, 16 bytes.  An armed timer
  /// keeps one too, with zero slot bits, so one compare orders a timer
  /// against the heap top.
  struct HeapRecord {
    TimeNs at;
    std::uint64_t key;  ///< seq << kSlotBits | slot
  };

  /// A re-armable timer: a bound member function and its pending firing.
  struct Timer {
    HeapRecord due;  ///< (time, seq << kSlotBits) while armed
    void* obj = nullptr;
    void (*invoke)(void*) = nullptr;
    bool armed = false;
  };

  static bool earlier(const HeapRecord& a, const HeapRecord& b) {
    if (a.at != b.at) {
      return a.at < b.at;
    }
    return a.key < b.key;
  }

  [[nodiscard]] Slot& slot(std::uint32_t idx) {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }

  std::uint64_t next_seq() {
    const std::uint64_t seq = next_seq_++;
    CSMABW_REQUIRE(seq < kMaxSeq, "event sequence space exhausted");
    return seq;
  }

  /// Whether the earliest armed timer fires before the heap top.
  [[nodiscard]] bool timer_next() const {
    return first_ != kNoTimer &&
           (heap_.empty() || earlier(timers_[first_].due, heap_.front()));
  }

  /// Points first_ at the earliest armed timer (kNoTimer if none).
  void find_first_timer() {
    first_ = kNoTimer;
    for (TimerId i = 0; i < timers_.size(); ++i) {
      const Timer& t = timers_[i];
      if (t.armed &&
          (first_ == kNoTimer || earlier(t.due, timers_[first_].due))) {
        first_ = i;
      }
    }
  }

  /// Runs the earliest event — the first timer when `timer` (from
  /// timer_next()), else the heap top — with `now` set to its time.
  void run_next(bool timer, TimeNs& now) {
    if (timer) {
      fire_first_timer(now);
      return;
    }
    const HeapRecord rec = take_top();
    now = rec.at;
    dispatch(rec);
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kInvalidSlot) {
      const std::uint32_t idx = free_head_;
      free_head_ = slot(idx).next_free;
      return idx;
    }
    return grow_slab();
  }

  /// Inserts the freshly filled slot `idx` into the heap (hole-based
  /// 4-ary sift-up).
  void commit(TimeNs at, std::uint32_t idx) {
    if (heap_.size() == heap_.capacity()) {
      ++allocations_;  // the push below grows the heap vector
    }
    std::size_t pos = heap_.size();
    const HeapRecord rec{at, next_seq() << kSlotBits | idx};
    heap_.push_back(rec);
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 4;
      if (!earlier(rec, heap_[parent])) {
        break;
      }
      heap_[pos] = heap_[parent];
      pos = parent;
    }
    heap_[pos] = rec;
  }

  /// Removes and returns the heap's top record (hole-based 4-ary
  /// sift-down).
  HeapRecord take_top() {
    const HeapRecord top = heap_.front();
    const HeapRecord last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      HeapRecord* h = heap_.data();
      std::size_t pos = 0;
      for (;;) {
        const std::size_t child = 4 * pos + 1;
        if (child + 4 <= n) {
          // Full fan-out: pairwise tournament for the minimum child —
          // two independent compares, then one, instead of a serial
          // dependency chain of three.
          const std::size_t m01 = earlier(h[child + 1], h[child])
                                      ? child + 1
                                      : child;
          const std::size_t m23 = earlier(h[child + 3], h[child + 2])
                                      ? child + 3
                                      : child + 2;
          const std::size_t m = earlier(h[m23], h[m01]) ? m23 : m01;
          if (!earlier(h[m], last)) {
            break;
          }
          h[pos] = h[m];
          pos = m;
          continue;
        }
        if (child >= n) {
          break;
        }
        std::size_t m = child;
        for (std::size_t c = child + 1; c < n; ++c) {
          if (earlier(h[c], h[m])) {
            m = c;
          }
        }
        if (!earlier(h[m], last)) {
          break;
        }
        h[pos] = h[m];
        pos = m;
      }
      h[pos] = last;
    }
    return top;
  }

  /// Runs the popped record's callback and recycles its slot.  The slot
  /// is recycled only after the callback returns, so the callback
  /// object stays valid even if the callback schedules new events.
  void dispatch(const HeapRecord& rec) {
    const std::uint32_t idx = static_cast<std::uint32_t>(rec.key) & kSlotMask;
    Slot& s = slot(idx);
    s.invoke(s.storage);
    release_slot(idx);
  }

  /// Destroys the callback and returns the slot to the free list.
  void release_slot(std::uint32_t idx) {
    Slot& s = slot(idx);
    if (s.destroy != nullptr) {
      s.destroy(s.storage);
    }
    s.next_free = free_head_;
    free_head_ = idx;
  }

  std::uint32_t grow_slab();
  /// Runs the earliest armed timer; out of line to keep the heap loop
  /// small.
  void fire_first_timer(TimeNs& now);

  std::vector<HeapRecord> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<Timer> timers_;
  TimerId first_ = kNoTimer;  ///< earliest armed timer
  std::uint32_t free_head_ = kInvalidSlot;
  std::uint32_t slots_used_ = 0;  ///< slots handed out at least once
  std::uint64_t next_seq_ = 0;
  std::uint64_t allocations_ = 0;
};

}  // namespace csmabw::sim
