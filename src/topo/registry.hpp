#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "topo/topology.hpp"

namespace csmabw::topo {

/// String-keyed factory registry for topology generators — the spatial
/// twin of traffic::TrafficModelRegistry.
///
/// A spec is `name` or `name:arg` where the arg grammar is generator
/// specific (`clique:5`, `grid:3x3`, `ring:8`, `pairs-hidden:2`,
/// `file:conf/grid.topo`).  Unlike the key=value registries, topology
/// args are positional: the generator owns everything after the first
/// colon.
///
/// Validation happens in two stages because a scenario is parsed before
/// its station count is known: canonical() checks the arg grammar and
/// normalizes the spelling (scenario round-tripping builds on it), and
/// build() materializes the graph for a concrete station count —
/// generators with an explicit node count require an exact match there,
/// while bare `clique` adapts to any cell.
class TopologyRegistry {
 public:
  struct Generator {
    /// Validates the arg grammar and returns the canonical arg spelling
    /// (empty = the spec is just the name).  Throws
    /// util::PreconditionError on malformed args.
    std::function<std::string(std::string_view arg)> canonicalize;
    /// Materializes the graph for a cell of `stations` stations.
    std::function<Topology(std::string_view arg, int stations)> build;
    /// Documents the arg for discoverability listings.
    std::string arg_help;
  };

  /// Registers a generator; throws util::PreconditionError on an empty
  /// or duplicate name.
  void add(std::string name, Generator generator);

  [[nodiscard]] bool contains(std::string_view name) const;
  /// Registered names in sorted order.
  [[nodiscard]] std::vector<std::string> names() const;
  /// The arg documentation string registered for `name`.
  [[nodiscard]] const std::string& help(std::string_view name) const;

  /// Validates `spec` and returns its canonical spelling
  /// ("grid:03x3" -> "grid:3x3").  Station count is not checked here.
  [[nodiscard]] std::string canonical(std::string_view spec) const;

  /// Builds the conflict graph of `spec` for a cell of `stations`
  /// stations.  Throws util::PreconditionError on unknown names,
  /// malformed args or a node-count mismatch.
  [[nodiscard]] Topology build(std::string_view spec, int stations) const;

  /// Registers the built-in generators: clique, grid, ring,
  /// pairs-hidden, file.
  static void register_builtins(TopologyRegistry& registry);

  /// The process-wide registry, pre-populated with the builtins.
  /// Register custom generators at startup, before campaigns run:
  /// build()/canonical() are safe to call concurrently, add() is not.
  static TopologyRegistry& global();

 private:
  const Generator& find(std::string_view spec, std::string_view& name,
                        std::string_view& arg) const;

  std::map<std::string, Generator, std::less<>> entries_;
};

/// The default topology of every scenario: bare `clique`, one collision
/// domain sized to the cell.
inline constexpr const char* kDefaultTopology = "clique";

}  // namespace csmabw::topo
