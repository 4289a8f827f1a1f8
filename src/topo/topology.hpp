#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace csmabw::topo {

/// Hard ceiling on topology node counts.  Large enough for the 1k–10k
/// station lattice campaigns (and then some); small enough that
/// rows*cols products and edge counts can never overflow 32-bit
/// arithmetic — the registry rejects anything bigger with a clear error
/// instead of silently wrapping.
inline constexpr int kMaxTopologyNodes = 1 << 20;
/// Tighter ceiling for the dense generators (clique, pairs-hidden),
/// whose edge count is quadratic in the node count.
inline constexpr int kMaxDenseTopologyNodes = 2048;

/// Flat compressed-sparse-row copy of a sorted adjacency-list
/// structure: one contiguous target array plus n+1 row offsets.  The
/// per-node vector-of-vectors layout stays the construction/query
/// format of topo::Topology (cheap to build incrementally, friendly to
/// tests); the CSR copy is what the medium hot path sweeps — a
/// neighborhood walk is a contiguous int32 span, one cache stream, no
/// per-row pointer chase.
class CsrAdjacency {
 public:
  CsrAdjacency() = default;
  explicit CsrAdjacency(const std::vector<std::vector<int>>& rows);

  [[nodiscard]] int num_nodes() const {
    return static_cast<int>(offsets_.size()) - 1;
  }
  [[nodiscard]] std::size_t num_entries() const { return targets_.size(); }
  [[nodiscard]] std::span<const std::int32_t> row(int i) const {
    const std::size_t b =
        static_cast<std::size_t>(offsets_[static_cast<std::size_t>(i)]);
    const std::size_t e =
        static_cast<std::size_t>(offsets_[static_cast<std::size_t>(i) + 1]);
    return {targets_.data() + b, targets_.data() + e};
  }
  [[nodiscard]] int degree(int i) const {
    return offsets_[static_cast<std::size_t>(i) + 1] -
           offsets_[static_cast<std::size_t>(i)];
  }

 private:
  std::vector<std::int32_t> offsets_{0};
  std::vector<std::int32_t> targets_;
};

/// A carrier-sense/interference conflict graph over the stations of one
/// cell.
///
/// Node i is station i (station 0 is conventionally the probe).  Two
/// symmetric edge sets describe the radio geometry:
///
///  - `sense`:     j in sense[i] means i hears j's transmissions —
///                 carrier sense defers, backoff freezes, EIFS applies.
///  - `interfere`: j in interfere[i] means a frame of i overlapping a
///                 transmission of j is corrupted at the receiver.
///
/// Sensing implies interference (sense[i] is a subset of interfere[i]):
/// a signal strong enough to trip carrier sense is strong enough to
/// corrupt.  The interesting regimes live in the gap between the two
/// sets:
///
///  - hidden terminal:  j in interfere[i] but not in sense[i] — i cannot
///    defer to j, so their frames collide whenever they overlap in time,
///    not just on slot-boundary coincidences.
///  - exposed terminal: j in sense[i] but i's and j's own neighborhoods
///    barely overlap — i defers to j although their receivers would both
///    survive; spatial reuse is what the conflict graph gives back when
///    the edge is absent.
///
/// A complete graph on both sets (`is_clique()`) is exactly the paper's
/// single collision domain.
struct Topology {
  /// Canonical generator spec this topology was built from
  /// ("grid:3x3", "clique", ...); diagnostic only.
  std::string spec;
  /// Sorted, symmetric, self-loop-free adjacency lists.
  std::vector<std::vector<int>> sense;
  std::vector<std::vector<int>> interfere;

  [[nodiscard]] int num_nodes() const {
    return static_cast<int>(sense.size());
  }
  /// True when both edge sets are complete — one collision domain, on
  /// which mac::Medium keeps its complete-graph bookkeeping.
  [[nodiscard]] bool is_clique() const;
  [[nodiscard]] bool senses(int a, int b) const;
  [[nodiscard]] bool interferes(int a, int b) const;
  /// Nodes j interfering with i that i cannot sense (hidden from i).
  [[nodiscard]] std::vector<int> hidden_from(int i) const;

  /// Throws util::PreconditionError unless both adjacency structures are
  /// sorted, unique, symmetric, self-loop-free, in range, and
  /// sense[i] is a subset of interfere[i] for every i.  Scales to the
  /// lattice campaigns: one linear pass per row for the
  /// sorted/unique/range invariants, a sorted merge (std::includes) per
  /// node for the subset invariant, O(E log deg) for symmetry — a
  /// 10k-node grid validates in well under 100 ms.
  void validate() const;

  /// Complete graph on n >= 1 nodes: today's single collision domain.
  [[nodiscard]] static Topology clique(int n);
  /// rows x cols lattice: stations sense their Manhattan-distance-1
  /// neighbors and interfere out to distance 2, so straight-line
  /// distance-2 pairs are classic hidden terminals sharing a middle
  /// neighbor.
  [[nodiscard]] static Topology grid(int rows, int cols);
  /// n-cycle: sense the two ring neighbors, interfere out to ring
  /// distance 2.
  [[nodiscard]] static Topology ring(int n);
  /// n mutually hidden stations: complete interference, empty sensing —
  /// every pair collides on any temporal overlap and nobody ever
  /// defers.  n = 2 is the textbook hidden-terminal pair.
  [[nodiscard]] static Topology hidden_pairs(int n);
  /// Parses an adjacency-list file: lines `sense: i j` / `interfere: i j`
  /// (one undirected edge each, '#' comments, `nodes: N` mandatory
  /// first directive); sense edges imply interference.
  [[nodiscard]] static Topology from_file(const std::string& path);
};

}  // namespace csmabw::topo
