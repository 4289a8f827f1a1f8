#pragma once

#include <memory>
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

/// Compressed-sparse-row adjacency: one contiguous target array plus
/// n+1 row offsets.  It is topo::Topology's one storage layout, and a
/// neighborhood walk on the medium's hot path is a contiguous span —
/// one cache stream, no per-row pointer chase.
class CsrAdjacency {
 public:
  CsrAdjacency() = default;
  explicit CsrAdjacency(const std::vector<std::vector<int>>& rows);

  [[nodiscard]] int num_nodes() const {
    return static_cast<int>(offsets_.size()) - 1;
  }
  [[nodiscard]] std::size_t num_entries() const { return targets_.size(); }
  [[nodiscard]] std::span<const int> row(int i) const {
    const auto b =
        static_cast<std::size_t>(offsets_[static_cast<std::size_t>(i)]);
    const auto e =
        static_cast<std::size_t>(offsets_[static_cast<std::size_t>(i) + 1]);
    return {targets_.data() + b, targets_.data() + e};
  }

 private:
  std::vector<int> offsets_{0};
  std::vector<int> targets_;
};

/// A carrier-sense/interference conflict graph over the stations of one
/// cell.
///
/// Node i is station i (station 0 is conventionally the probe).  Two
/// symmetric edge sets describe the radio geometry:
///
///  - `sense`:     j in sense(i) means i hears j's transmissions —
///                 carrier sense defers, backoff freezes, EIFS applies.
///  - `interfere`: j in interfere(i) means a frame of i overlapping a
///                 transmission of j is corrupted at the receiver.
///
/// Sensing implies interference (sense(i) is a subset of interfere(i)):
/// a signal strong enough to trip carrier sense is strong enough to
/// corrupt.  The interesting regimes live in the gap between the two
/// sets:
///
///  - hidden terminal:  j in interfere(i) but not in sense(i) — i cannot
///    defer to j, so their frames collide whenever they overlap in time,
///    not just on slot-boundary coincidences.
///  - exposed terminal: j in sense(i) but i's and j's own neighborhoods
///    barely overlap — i defers to j although their receivers would both
///    survive; spatial reuse is what the conflict graph gives back when
///    the edge is absent.
///
/// A complete graph on both sets (`is_clique()`) is exactly the paper's
/// single collision domain.
///
/// Immutable and valid by construction, so nothing downstream re-checks
/// it: core::Scenario builds one per scenario and shares it read-only
/// (TopologyPtr) with every repetition's mac::Medium, across workers.
class Topology {
 public:
  /// Adjacency lists, one per node: the generators' construction format.
  using Rows = std::vector<std::vector<int>>;

  /// The one constructor: throws util::PreconditionError unless both
  /// edge sets have the same n >= 1 rows, each sorted, unique,
  /// symmetric, self-loop-free and in range, with sense[i] a subset of
  /// interfere[i]; then stores both as CSR, in O(E log deg).  `spec`
  /// ("grid:3x3", ...) is diagnostic only.
  Topology(std::string spec, const Rows& sense, const Rows& interfere);

  [[nodiscard]] const std::string& spec() const { return spec_; }
  [[nodiscard]] int num_nodes() const { return sense_.num_nodes(); }
  /// Node i's sensing neighbors, ascending.
  [[nodiscard]] std::span<const int> sense(int i) const {
    return sense_.row(i);
  }
  /// Node i's interferers, ascending (a superset of sense(i)).
  [[nodiscard]] std::span<const int> interfere(int i) const {
    return interfere_.row(i);
  }
  /// True when both edge sets are complete — one collision domain, on
  /// which mac::Medium keeps its complete-graph bookkeeping.
  [[nodiscard]] bool is_clique() const;
  [[nodiscard]] bool senses(int a, int b) const;
  [[nodiscard]] bool interferes(int a, int b) const;
  /// Nodes j interfering with i that i cannot sense (hidden from i).
  [[nodiscard]] std::vector<int> hidden_from(int i) const;

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

 private:
  std::string spec_;
  CsrAdjacency sense_;
  CsrAdjacency interfere_;
};

/// The shared, read-only handle every repetition's medium reads.
using TopologyPtr = std::shared_ptr<const Topology>;

}  // namespace csmabw::topo
