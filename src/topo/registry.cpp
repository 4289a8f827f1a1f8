#include "topo/registry.hpp"

#include <charconv>

#include "util/require.hpp"

namespace csmabw::topo {

namespace {

int parse_count(std::string_view arg, const std::string& what) {
  // Parse into 64 bits so ring:4000000000 is reported as out of range
  // rather than wrapping inside from_chars' int overflow handling path
  // with the generic grammar error.
  long long value = 0;
  const auto [ptr, ec] =
      std::from_chars(arg.data(), arg.data() + arg.size(), value);
  CSMABW_REQUIRE(ec != std::errc::result_out_of_range,
                 what + " `" + std::string(arg) +
                     "` is out of range (max " +
                     std::to_string(kMaxTopologyNodes) + ")");
  CSMABW_REQUIRE(ec == std::errc{} && ptr == arg.data() + arg.size() &&
                     value >= 1,
                 what + " needs a positive integer, got `" +
                     std::string(arg) + "`");
  CSMABW_REQUIRE(value <= kMaxTopologyNodes,
                 what + " " + std::to_string(value) +
                     " exceeds the topology cap of " +
                     std::to_string(kMaxTopologyNodes) + " stations");
  return static_cast<int>(value);
}

std::pair<int, int> parse_grid_arg(std::string_view arg) {
  const std::size_t x = arg.find('x');
  CSMABW_REQUIRE(x != std::string_view::npos,
                 "grid arg must be RxC (e.g. grid:3x3), got `" +
                     std::string(arg) + "`");
  const int rows = parse_count(arg.substr(0, x), "grid rows");
  const int cols = parse_count(arg.substr(x + 1), "grid cols");
  // Each dimension fits, but the product can still overflow int
  // (grid:100000x100000); check it in 64 bits before anyone multiplies.
  CSMABW_REQUIRE(static_cast<long long>(rows) * cols <= kMaxTopologyNodes,
                 "grid " + std::to_string(rows) + "x" + std::to_string(cols) +
                     " has " + std::to_string(static_cast<long long>(rows) *
                                              cols) +
                     " stations, above the topology cap of " +
                     std::to_string(kMaxTopologyNodes));
  return {rows, cols};
}

void require_station_match(const std::string& spec, int nodes, int stations) {
  CSMABW_REQUIRE(nodes == stations,
                 "topology `" + spec + "` has " + std::to_string(nodes) +
                     " nodes but the cell has " + std::to_string(stations) +
                     " stations (probe + contenders)");
}

}  // namespace

void TopologyRegistry::add(std::string name, Generator generator) {
  CSMABW_REQUIRE(!name.empty(), "topology name must be non-empty");
  CSMABW_REQUIRE(static_cast<bool>(generator.canonicalize) &&
                     static_cast<bool>(generator.build),
                 "topology generator must set canonicalize and build");
  const auto [it, inserted] =
      entries_.emplace(std::move(name), std::move(generator));
  CSMABW_REQUIRE(inserted,
                 "topology `" + it->first + "` is already registered");
}

bool TopologyRegistry::contains(std::string_view name) const {
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> TopologyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.push_back(name);  // std::map iterates in sorted key order
  }
  return out;
}

const std::string& TopologyRegistry::help(std::string_view name) const {
  const auto it = entries_.find(name);
  CSMABW_REQUIRE(it != entries_.end(),
                 "unknown topology `" + std::string(name) + "`");
  return it->second.arg_help;
}

const TopologyRegistry::Generator& TopologyRegistry::find(
    std::string_view spec, std::string_view& name,
    std::string_view& arg) const {
  const std::size_t colon = spec.find(':');
  name = colon == std::string_view::npos ? spec : spec.substr(0, colon);
  arg = colon == std::string_view::npos ? std::string_view{}
                                        : spec.substr(colon + 1);
  CSMABW_REQUIRE(!name.empty(),
                 "topology spec `" + std::string(spec) + "` has no name");
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const std::string& n : names()) {
      if (!known.empty()) {
        known += ", ";
      }
      known += n;
    }
    throw util::PreconditionError("unknown topology `" + std::string(name) +
                                  "`; registered: " + known);
  }
  return it->second;
}

std::string TopologyRegistry::canonical(std::string_view spec) const {
  std::string_view name;
  std::string_view arg;
  const Generator& gen = find(spec, name, arg);
  const std::string canonical_arg = gen.canonicalize(arg);
  if (canonical_arg.empty()) {
    return std::string(name);
  }
  return std::string(name) + ":" + canonical_arg;
}

Topology TopologyRegistry::build(std::string_view spec, int stations) const {
  CSMABW_REQUIRE(stations >= 1, "a cell has at least the probe station");
  std::string_view name;
  std::string_view arg;
  const Generator& gen = find(spec, name, arg);
  gen.canonicalize(arg);  // reject malformed args with the grammar error
  return gen.build(arg, stations);  // a Topology is valid by construction
}

void TopologyRegistry::register_builtins(TopologyRegistry& registry) {
  registry.add(
      "clique",
      Generator{
          [](std::string_view arg) -> std::string {
            if (arg.empty()) {
              return "";  // bare clique: sized to the cell at build time
            }
            return std::to_string(parse_count(arg, "clique size"));
          },
          [](std::string_view arg, int stations) {
            if (!arg.empty()) {
              require_station_match(
                  "clique:" + std::string(arg),
                  parse_count(arg, "clique size"), stations);
            }
            return Topology::clique(stations);
          },
          "[:N] single collision domain (default; bare clique sizes to "
          "the cell, clique:N pins the station count)"});
  registry.add(
      "grid",
      Generator{
          [](std::string_view arg) -> std::string {
            const auto [rows, cols] = parse_grid_arg(arg);
            return std::to_string(rows) + "x" + std::to_string(cols);
          },
          [](std::string_view arg, int stations) {
            const auto [rows, cols] = parse_grid_arg(arg);
            require_station_match(
                "grid:" + std::string(arg), rows * cols, stations);
            return Topology::grid(rows, cols);
          },
          ":RxC lattice; sense Manhattan distance 1, interfere distance "
          "2 (straight-line distance-2 pairs are hidden terminals)"});
  registry.add(
      "ring",
      Generator{
          [](std::string_view arg) -> std::string {
            return std::to_string(parse_count(arg, "ring size"));
          },
          [](std::string_view arg, int stations) {
            require_station_match("ring:" + std::string(arg),
                                  parse_count(arg, "ring size"), stations);
            return Topology::ring(stations);
          },
          ":N cycle; sense ring distance 1, interfere distance 2"});
  registry.add(
      "pairs-hidden",
      Generator{
          [](std::string_view arg) -> std::string {
            const int n = parse_count(arg, "pairs-hidden size");
            CSMABW_REQUIRE(n >= 2, "pairs-hidden needs >= 2 stations");
            return std::to_string(n);
          },
          [](std::string_view arg, int stations) {
            require_station_match(
                "pairs-hidden:" + std::string(arg),
                parse_count(arg, "pairs-hidden size"), stations);
            return Topology::hidden_pairs(stations);
          },
          ":N mutually hidden stations (complete interference, no "
          "carrier sense; N=2 is the textbook hidden pair)"});
  registry.add(
      "file",
      Generator{
          [](std::string_view arg) -> std::string {
            CSMABW_REQUIRE(!arg.empty(),
                           "file topology needs a path (file:PATH)");
            return std::string(arg);
          },
          [](std::string_view arg, int stations) {
            Topology t = Topology::from_file(std::string(arg));
            require_station_match("file:" + std::string(arg), t.num_nodes(),
                                  stations);
            return t;
          },
          ":PATH adjacency-list file (`nodes: N`, then `sense: i j` / "
          "`interfere: i j` lines; sense edges imply interference)"});
}

TopologyRegistry& TopologyRegistry::global() {
  static TopologyRegistry* registry = [] {
    auto* r = new TopologyRegistry();
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

}  // namespace csmabw::topo
