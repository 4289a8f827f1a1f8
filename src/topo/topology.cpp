#include "topo/topology.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/require.hpp"

namespace csmabw::topo {

namespace {

using Rows = Topology::Rows;

void add_edge(Rows& adj, int a, int b) {
  adj[static_cast<std::size_t>(a)].push_back(b);
  adj[static_cast<std::size_t>(b)].push_back(a);
}

void sort_unique(Rows& adj) {
  for (std::vector<int>& row : adj) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
}

bool contains(std::span<const int> row, int b) {
  return std::binary_search(row.begin(), row.end(), b);
}

void check_adjacency(const Rows& adj, int n, const char* what) {
  for (int i = 0; i < n; ++i) {
    const std::vector<int>& row = adj[static_cast<std::size_t>(i)];
    // One linear pass: strict ascent implies sorted, unique and (with
    // the range check) self-loop-free without re-scanning the row.
    int prev = -1;
    for (int j : row) {
      CSMABW_REQUIRE(j > prev,
                     std::string(what) +
                         " adjacency must be sorted and unique");
      prev = j;
      CSMABW_REQUIRE(j >= 0 && j < n,
                     std::string(what) + " edge endpoint out of range");
      CSMABW_REQUIRE(j != i, std::string(what) + " self-loop");
      CSMABW_REQUIRE(contains(adj[static_cast<std::size_t>(j)], i),
                     std::string(what) + " adjacency must be symmetric");
    }
  }
}

}  // namespace

CsrAdjacency::CsrAdjacency(const Rows& rows) {
  std::size_t total = 0;
  for (const std::vector<int>& row : rows) {
    total += row.size();
  }
  offsets_.reserve(rows.size() + 1);
  targets_.reserve(total);
  for (const std::vector<int>& row : rows) {
    targets_.insert(targets_.end(), row.begin(), row.end());
    offsets_.push_back(static_cast<int>(targets_.size()));
  }
}

Topology::Topology(std::string spec, const Rows& sense, const Rows& interfere)
    : spec_(std::move(spec)) {
  const int n = static_cast<int>(sense.size());
  CSMABW_REQUIRE(n >= 1, "topology must have at least one node");
  CSMABW_REQUIRE(static_cast<int>(interfere.size()) == n,
                 "sense/interfere node counts differ");
  check_adjacency(sense, n, "sense");
  check_adjacency(interfere, n, "interfere");
  for (int i = 0; i < n; ++i) {
    for (int j : sense[static_cast<std::size_t>(i)]) {
      CSMABW_REQUIRE(contains(interfere[static_cast<std::size_t>(i)], j),
                     "sensing implies interference: sense edge " +
                         std::to_string(i) + "-" + std::to_string(j) +
                         " missing from the interference set");
    }
  }
  sense_ = CsrAdjacency(sense);
  interfere_ = CsrAdjacency(interfere);
}

bool Topology::is_clique() const {
  // Rows are unique, in range and self-loop-free, so n(n-1) entries per
  // edge set means every row is complete.
  const auto n = static_cast<std::size_t>(num_nodes());
  return sense_.num_entries() == n * (n - 1) &&
         interfere_.num_entries() == n * (n - 1);
}

bool Topology::senses(int a, int b) const {
  return a >= 0 && a < num_nodes() && contains(sense(a), b);
}

bool Topology::interferes(int a, int b) const {
  return a >= 0 && a < num_nodes() && contains(interfere(a), b);
}

std::vector<int> Topology::hidden_from(int i) const {
  std::vector<int> out;
  for (int j : interfere(i)) {
    if (!senses(i, j)) {
      out.push_back(j);
    }
  }
  return out;
}

Topology Topology::clique(int n) {
  CSMABW_REQUIRE(n >= 1, "clique size must be >= 1");
  CSMABW_REQUIRE(n <= kMaxDenseTopologyNodes,
                 "clique size " + std::to_string(n) + " exceeds the dense-"
                 "topology cap of " + std::to_string(kMaxDenseTopologyNodes) +
                 " stations (edge count is quadratic)");
  Rows all(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (j != i) {
        all[static_cast<std::size_t>(i)].push_back(j);
      }
    }
  }
  return Topology("clique:" + std::to_string(n), all, all);
}

Topology Topology::grid(int rows, int cols) {
  CSMABW_REQUIRE(rows >= 1 && cols >= 1, "grid dimensions must be >= 1");
  CSMABW_REQUIRE(static_cast<long long>(rows) * cols <= kMaxTopologyNodes,
                 "grid " + std::to_string(rows) + "x" + std::to_string(cols) +
                     " exceeds the topology cap of " +
                     std::to_string(kMaxTopologyNodes) + " stations");
  const int n = rows * cols;
  Rows sense(static_cast<std::size_t>(n));
  Rows interfere(static_cast<std::size_t>(n));
  // Enumerate the (dr, dc) offsets with |dr| + |dc| <= 2 in row-major
  // order, so every row comes out sorted without a sort pass and the
  // whole build is O(N) — the old all-pairs double loop was the
  // bottleneck past ~1k stations.
  for (int a = 0; a < n; ++a) {
    const int ra = a / cols;
    const int ca = a % cols;
    std::vector<int>& srow = sense[static_cast<std::size_t>(a)];
    std::vector<int>& frow = interfere[static_cast<std::size_t>(a)];
    srow.reserve(4);
    frow.reserve(12);
    for (int dr = -2; dr <= 2; ++dr) {
      const int rb = ra + dr;
      if (rb < 0 || rb >= rows) {
        continue;
      }
      const int span = 2 - std::abs(dr);
      for (int dc = -span; dc <= span; ++dc) {
        if (dr == 0 && dc == 0) {
          continue;
        }
        const int cb = ca + dc;
        if (cb < 0 || cb >= cols) {
          continue;
        }
        const int b = rb * cols + cb;
        if (std::abs(dr) + std::abs(dc) <= 1) {
          srow.push_back(b);
        }
        frow.push_back(b);
      }
    }
  }
  return Topology("grid:" + std::to_string(rows) + "x" + std::to_string(cols),
                  sense, interfere);
}

Topology Topology::ring(int n) {
  CSMABW_REQUIRE(n >= 1, "ring size must be >= 1");
  CSMABW_REQUIRE(n <= kMaxTopologyNodes,
                 "ring size " + std::to_string(n) +
                     " exceeds the topology cap of " +
                     std::to_string(kMaxTopologyNodes) + " stations");
  Rows sense(static_cast<std::size_t>(n));
  Rows interfere(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int step : {1, 2}) {
      const int j = (i + step) % n;
      if (j == i) {
        continue;  // tiny rings: a step that wraps onto itself is no edge
      }
      if (step == 1) {
        add_edge(sense, i, j);
      }
      add_edge(interfere, i, j);
    }
  }
  sort_unique(sense);
  sort_unique(interfere);
  return Topology("ring:" + std::to_string(n), sense, interfere);
}

Topology Topology::hidden_pairs(int n) {
  CSMABW_REQUIRE(n >= 2, "pairs-hidden needs >= 2 stations");
  CSMABW_REQUIRE(n <= kMaxDenseTopologyNodes,
                 "pairs-hidden size " + std::to_string(n) +
                     " exceeds the dense-topology cap of " +
                     std::to_string(kMaxDenseTopologyNodes) +
                     " stations (edge count is quadratic)");
  Rows interfere(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (j != i) {
        interfere[static_cast<std::size_t>(i)].push_back(j);
      }
    }
  }
  return Topology("pairs-hidden:" + std::to_string(n),
                  Rows(static_cast<std::size_t>(n)), interfere);
}

Topology Topology::from_file(const std::string& path) {
  std::ifstream in(path);
  CSMABW_REQUIRE(in.is_open(), "cannot open topology file `" + path + "`");
  Rows sense;
  Rows interfere;
  int n = -1;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) {
      continue;  // blank / comment-only line
    }
    const std::string where =
        "topology file `" + path + "` line " + std::to_string(lineno);
    if (tag == "nodes:") {
      CSMABW_REQUIRE(n < 0, where + ": duplicate nodes: directive");
      CSMABW_REQUIRE(static_cast<bool>(ls >> n) && n >= 1,
                     where + ": nodes: needs a positive count");
      CSMABW_REQUIRE(n <= kMaxTopologyNodes,
                     where + ": node count exceeds the topology cap of " +
                         std::to_string(kMaxTopologyNodes));
      sense.resize(static_cast<std::size_t>(n));
      interfere.resize(static_cast<std::size_t>(n));
      continue;
    }
    CSMABW_REQUIRE(n >= 1, where + ": nodes: must come first");
    CSMABW_REQUIRE(tag == "sense:" || tag == "interfere:",
                   where + ": unknown directive `" + tag +
                       "` (expected nodes:/sense:/interfere:)");
    int a = -1;
    int b = -1;
    CSMABW_REQUIRE(static_cast<bool>(ls >> a >> b),
                   where + ": expected two node ids");
    std::string extra;
    CSMABW_REQUIRE(!(ls >> extra), where + ": trailing tokens");
    CSMABW_REQUIRE(a >= 0 && a < n && b >= 0 && b < n && a != b,
                   where + ": edge endpoints out of range");
    if (tag == "sense:") {
      add_edge(sense, a, b);
    }
    add_edge(interfere, a, b);  // sensing implies interference
  }
  CSMABW_REQUIRE(n >= 1,
                 "topology file `" + path + "` has no nodes: directive");
  sort_unique(sense);
  sort_unique(interfere);
  return Topology("file:" + path, sense, interfere);
}

}  // namespace csmabw::topo
