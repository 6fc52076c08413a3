// CSR graph in asymmetric memory, with counted access and the GraphView
// concept every wecc algorithm is templated over.
//
// Conventions (matching the paper's preliminaries, §2):
//  * undirected, unweighted; self-loops and parallel edges allowed;
//  * vertices are 0..n-1; the global total order used for tie-breaking is
//    ascending vertex id (smaller id = higher priority);
//  * adjacency lists are sorted ascending, which makes every BFS in the
//    library deterministic and gives the unique tie-broken shortest paths
//    of §3 for free;
//  * reading vertex v's adjacency charges 1 + deg(v) asymmetric reads.
#pragma once

#include <cassert>
#include <concepts>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "amem/counters.hpp"

namespace wecc::graph {

using vertex_id = std::uint32_t;
using edge_id = std::uint64_t;

inline constexpr vertex_id kNoVertex = ~vertex_id{0};

/// An undirected edge as an unordered pair (kept in input orientation).
struct Edge {
  vertex_id u = 0;
  vertex_id v = 0;
  bool operator==(const Edge&) const = default;
};

using EdgeList = std::vector<Edge>;

/// Any type connectivity/biconnectivity algorithms can traverse: reports its
/// vertex count and enumerates neighbors (charging model reads itself).
template <typename G>
concept GraphView = requires(const G& g, vertex_id v) {
  { g.num_vertices() } -> std::convertible_to<std::size_t>;
  { g.for_neighbors(v, [](vertex_id) {}) };
};

/// Immutable CSR graph.
class Graph {
 public:
  Graph() = default;

  /// Build from an edge list; both directions are materialized, adjacency
  /// sorted ascending. Self-loops and parallel edges are preserved.
  static Graph from_edges(std::size_t n, const EdgeList& edges);

  [[nodiscard]] std::size_t num_vertices() const noexcept { return n_; }
  /// Number of undirected edges (self-loops count once).
  [[nodiscard]] std::size_t num_edges() const noexcept { return m_; }

  /// Counted degree lookup (one read of the offset table).
  [[nodiscard]] std::size_t degree(vertex_id v) const {
    amem::count_read();
    return offsets_[v + 1] - offsets_[v];
  }

  /// Enumerate neighbors of v, charging 1 + deg(v) reads.
  template <typename F>
  void for_neighbors(vertex_id v, F&& fn) const {
    assert(v < n_);
    const edge_id b = offsets_[v], e = offsets_[v + 1];
    amem::count_read(1 + (e - b));
    for (edge_id i = b; i < e; ++i) fn(adj_[i]);
  }

  /// Uncounted adjacency span — ground-truth checkers and tests only.
  [[nodiscard]] std::span<const vertex_id> neighbors_raw(vertex_id v) const {
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }
  [[nodiscard]] std::size_t degree_raw(vertex_id v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Maximum degree (uncounted; a structural property, not a traversal).
  [[nodiscard]] std::size_t max_degree() const noexcept;

  /// The distinct undirected edges in canonical (min,max) order with
  /// multiplicities expanded — used by generators/tests to round-trip.
  [[nodiscard]] EdgeList edge_list() const;

 private:
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::vector<edge_id> offsets_;   // n+1
  std::vector<vertex_id> adj_;     // 2m - (#self loops)
};

static_assert(GraphView<Graph>);

}  // namespace wecc::graph
