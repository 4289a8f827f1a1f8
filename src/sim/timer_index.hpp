#pragma once

#include <cstdint>
#include <vector>

#include "util/require.hpp"
#include "util/time.hpp"

namespace csmabw::sim {

/// Addressable min-index over (time, id) keys for a fixed universe of
/// small integer ids [0, n) — the incremental fire-time and
/// transmission-end index behind mac::Medium's O(degree) sparse path.
///
/// A 4-ary min-heap of 16-byte (TimeNs, id) entries plus a dense
/// id -> heap-position table gives O(log n) insert / update / erase and
/// O(1) find-min, with no per-operation allocation after reset():
/// both vectors are sized to the universe up front and never grow.
///
/// Ordering is the total order (time, id): ids are unique in the index,
/// so equal-time entries pop in ascending id order — callers draining
/// "everything due exactly now" get a deterministic, already-sorted
/// sequence, independent of the insertion/update history.  (A plain
/// binary heap would surface equal keys in history-dependent order;
/// determinism across byte-identical replays relies on this tie-break.)
class TimerIndex {
 public:
  /// Clears the index and fixes the id universe to [0, n).  Allocates
  /// once; every later operation is allocation-free.
  void reset(int n) {
    CSMABW_REQUIRE(n >= 0, "timer index universe must be non-negative");
    pos_.assign(static_cast<std::size_t>(n), -1);
    heap_.clear();
    heap_.reserve(static_cast<std::size_t>(n));
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] int size() const { return static_cast<int>(heap_.size()); }
  [[nodiscard]] int universe() const { return static_cast<int>(pos_.size()); }
  [[nodiscard]] bool contains(int id) const {
    return pos_[static_cast<std::size_t>(id)] >= 0;
  }
  /// Key of `id`; requires contains(id).
  [[nodiscard]] TimeNs time_of(int id) const {
    const std::int32_t p = pos_[static_cast<std::size_t>(id)];
    CSMABW_REQUIRE(p >= 0, "time_of() on an id not in the index");
    return heap_[static_cast<std::size_t>(p)].time;
  }
  /// Earliest key; requires !empty().
  [[nodiscard]] TimeNs top_time() const {
    CSMABW_REQUIRE(!heap_.empty(), "top_time() on an empty index");
    return heap_.front().time;
  }
  /// Id holding the earliest key (smallest id on ties); requires
  /// !empty().
  [[nodiscard]] int top_id() const {
    CSMABW_REQUIRE(!heap_.empty(), "top_id() on an empty index");
    return heap_.front().id;
  }

  /// Inserts `id` with key `t`, or rekeys it if already present.
  void set(int id, TimeNs t) {
    const std::int32_t p = pos_[static_cast<std::size_t>(id)];
    const Entry e{t, static_cast<std::int32_t>(id)};
    if (p < 0) {
      heap_.push_back(e);  // within reserve(): no allocation
      sift_up(heap_.size() - 1, e);
      return;
    }
    const std::size_t sp = static_cast<std::size_t>(p);
    if (heap_[sp].time == t) {
      return;  // rekey to the identical deadline: entry already in place
    }
    if (earlier(e, heap_[sp])) {
      sift_up(sp, e);
    } else {
      sift_down(sp, e);
    }
  }

  /// Removes `id` if present; no-op otherwise.
  void erase(int id) {
    const std::int32_t p = pos_[static_cast<std::size_t>(id)];
    if (p < 0) {
      return;
    }
    remove_at(static_cast<std::size_t>(p));
  }

  /// Removes and returns the top id; requires !empty().
  int pop_top() {
    CSMABW_REQUIRE(!heap_.empty(), "pop_top() on an empty index");
    const int id = heap_.front().id;
    remove_at(0);
    return id;
  }

 private:
  struct Entry {
    TimeNs time;
    std::int32_t id;
  };

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.id < b.id;
  }

  void place(std::size_t p, const Entry& e) {
    heap_[p] = e;
    pos_[static_cast<std::size_t>(e.id)] = static_cast<std::int32_t>(p);
  }

  /// Moves `e` up from hole `p` until its parent is earlier.
  void sift_up(std::size_t p, Entry e) {
    while (p > 0) {
      const std::size_t parent = (p - 1) / 4;
      if (!earlier(e, heap_[parent])) {
        break;
      }
      place(p, heap_[parent]);
      p = parent;
    }
    place(p, e);
  }

  /// Moves `e` down from hole `p` until no child is earlier.
  void sift_down(std::size_t p, Entry e) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t child = 4 * p + 1;
      if (child >= n) {
        break;
      }
      std::size_t m = child;
      const std::size_t last = child + 4 < n ? child + 4 : n;
      for (std::size_t c = child + 1; c < last; ++c) {
        if (earlier(heap_[c], heap_[m])) {
          m = c;
        }
      }
      if (!earlier(heap_[m], e)) {
        break;
      }
      place(p, heap_[m]);
      p = m;
    }
    place(p, e);
  }

  void remove_at(std::size_t p) {
    pos_[static_cast<std::size_t>(heap_[p].id)] = -1;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (p == heap_.size()) {
      return;  // removed the tail entry
    }
    if (p > 0 && earlier(last, heap_[(p - 1) / 4])) {
      sift_up(p, last);
    } else {
      sift_down(p, last);
    }
  }

  std::vector<Entry> heap_;
  std::vector<std::int32_t> pos_;  ///< id -> heap position, -1 = absent
};

}  // namespace csmabw::sim
