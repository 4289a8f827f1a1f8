// Verifies the pooled event core, its timers and the medium's hot path are
// allocation-free in steady state, two ways: the queue's own allocation
// counter (slab chunks + heap-vector growth), and — where sanitizers
// don't own the allocator — a replacement global operator new that
// counts every heap allocation in the process.  The replacement is
// binary-wide but only counts while `g_counting` is set, which happens
// strictly inside the measured loops (no gtest assertions, no stream
// I/O in between).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "mac/station.hpp"
#include "mac/wlan.hpp"
#include "sim/simulator.hpp"
#include "topo/topology.hpp"
#include "util/time.hpp"

// ASan/MSan interpose the allocator and tag each allocation with the
// operator that produced it; a user replacement of only the ordinary
// operator new then trips alloc-dealloc-mismatch on the library's
// nothrow/aligned paths.  Under sanitizers the slab-counter assertions
// still run; only the global hook is disabled.
#if defined(__SANITIZE_ADDRESS__)
#define CSMABW_NEW_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(memory_sanitizer)
#define CSMABW_NEW_HOOK 0
#endif
#endif
#ifndef CSMABW_NEW_HOOK
#define CSMABW_NEW_HOOK 1
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

#if CSMABW_NEW_HOOK
void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n > 0 ? n : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
#endif

}  // namespace

#if CSMABW_NEW_HOOK
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace csmabw::sim {
namespace {

TEST(EventAllocation, SteadyStateScheduleAndRunIsHeapFree) {
  Simulator sim;
  long hits = 0;
  // Warm-up: grow the slab and the heap vector to their high-water mark.
  for (int i = 0; i < 2000; ++i) {
    sim.schedule_in(TimeNs::us(i % 100), [&hits] { ++hits; });
  }
  sim.run();

  // Steady state: 10k scheduled + dispatched events, zero allocations.
  const std::uint64_t queue_allocs_before = sim.event_allocations();
  g_allocs.store(0);
  g_counting.store(true);
  for (int batch = 0; batch < 10; ++batch) {
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_in(TimeNs::us(i % 100), [&hits] { ++hits; });
    }
    sim.run();
  }
  g_counting.store(false);

  EXPECT_EQ(sim.event_allocations(), queue_allocs_before);
#if CSMABW_NEW_HOOK
  EXPECT_EQ(g_allocs.load(), 0u);
#endif
  EXPECT_EQ(hits, 2000 + 10000);
}

TEST(EventAllocation, TimerRearmChurnIsHeapFree) {
  struct Hits {
    long n = 0;
    void hit() { ++n; }
  } hits;
  Simulator sim;
  const TimerId t = sim.add_timer<&Hits::hit>(hits);

  // Registration may allocate; arming, disarming and firing may not.
  const std::uint64_t queue_allocs_before = sim.event_allocations();
  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < 10000; ++i) {
    sim.arm(t, TimeNs::us(5 + i % 50));
    if (i % 3 == 1) {
      sim.disarm(t);
    }
  }
  sim.run();
  g_counting.store(false);

  EXPECT_EQ(sim.event_allocations(), queue_allocs_before);
#if CSMABW_NEW_HOOK
  EXPECT_EQ(g_allocs.load(), 0u);
#endif
  EXPECT_EQ(hits.n, 1);  // the last arm (i = 9999) stays armed
}

/// Drains a full queue on every station of a cell over `topology` twice
/// and counts the allocations of the second drain only: the first one
/// grows the event slab and every station's queue to their high-water
/// marks, and the enqueues themselves (queue growth) are not counted.
void expect_heap_free_drain(topo::Topology topology) {
  const int n = topology.num_nodes();
  mac::WlanNetwork net(mac::PhyParams::dot11b_short(), 3,
                       std::make_shared<const topo::Topology>(
                           std::move(topology)));
  std::vector<mac::DcfStation*> stations;
  for (int i = 0; i < n; ++i) {
    stations.push_back(&net.add_station());
  }
  const auto fill = [&stations] {
    for (mac::DcfStation* st : stations) {
      for (int k = 0; k < 20; ++k) {
        mac::Packet p;
        p.flow = st->id();
        p.seq = k;
        p.size_bytes = 1500;
        st->enqueue(p);
      }
    }
  };
  fill();
  net.simulator().run();

  fill();
  const std::uint64_t queue_allocs_before = net.simulator().event_allocations();
  g_allocs.store(0);
  g_counting.store(true);
  net.simulator().run();
  g_counting.store(false);

  EXPECT_EQ(net.simulator().event_allocations(), queue_allocs_before);
#if CSMABW_NEW_HOOK
  EXPECT_EQ(g_allocs.load(), 0u);
#endif
  std::uint64_t delivered = 0;
  for (const mac::DcfStation* st : stations) {
    EXPECT_EQ(st->queue_length(), 0u);
    delivered += st->stats().delivered;
  }
  EXPECT_EQ(net.medium().stats().successes, delivered);
  EXPECT_GT(net.medium().stats().collisions, 0u);
}

TEST(EventAllocation, CompleteGraphMediumDrainIsHeapFree) {
  expect_heap_free_drain(topo::Topology::clique(10));
}

TEST(EventAllocation, SparseGraphMediumDrainIsHeapFree) {
  expect_heap_free_drain(topo::Topology::grid(5, 5));
}

}  // namespace
}  // namespace csmabw::sim
