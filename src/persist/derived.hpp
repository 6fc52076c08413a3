// Query-ready arrays derived from one epoch's logical edge set, shared by
// the snapshot writer (which serializes them) and the epoch history (which
// recomputes them for epochs that were never checkpointed). One derivation
// path means the mmap'd answers and the rebuilt answers cannot drift.
//
//  * QueryView — non-owning spans over the arrays plus the query logic:
//    connected / component_of / biconnected / two_edge_connected /
//    is_articulation / is_bridge / edge_block_id, answered without touching
//    the graph (connectivity & 2ec are label equality, articulation is a
//    bitmap probe, bridges and edges are binary searches, biconnectivity
//    intersects the two endpoints' sorted block-id rows). The same struct reads straight out
//    of an mmap'd snapshot — zero copies, zero allocation.
//  * DerivedState — the owning form, computed from (n, edges) with the
//    sequential ground-truth engines (DSU for connectivity-only,
//    Hopcroft–Tarjan for the full surface).
//
// Semantics match BiconnectivityOracle: biconnected(u,u) and
// two_edge_connected(u,u) are true; a bridge forms its own block, so its
// endpoints are biconnected; self-loops belong to no block.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "amem/counters.hpp"
#include "dynamic/query.hpp"
#include "graph/graph.hpp"

namespace wecc::persist {

/// Non-owning view over the derived arrays; the biconn sections are empty
/// spans for connectivity-only state (has_biconn() == false).
struct QueryView {
  std::span<const std::uint64_t> csr_offsets;   // n+1
  std::span<const std::uint32_t> csr_adj;       // arcs, sorted per vertex
  std::span<const std::uint32_t> cc_label;      // n
  std::span<const std::uint32_t> tecc_label;    // n          (biconn)
  std::span<const std::uint8_t> artic_bits;     // ceil(n/8)  (biconn)
  std::span<const std::uint64_t> bridge_keys;   // sorted     (biconn)
  std::span<const std::uint64_t> block_offsets; // n+1        (biconn)
  std::span<const std::uint32_t> block_ids;     // sorted/row (biconn)

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return cc_label.size();
  }
  [[nodiscard]] bool has_biconn() const noexcept {
    return !block_offsets.empty();
  }
  /// kConnected always; the biconnectivity kinds only with their sections.
  [[nodiscard]] bool supports(dynamic::MixedQuery::Kind k) const noexcept {
    return k == dynamic::MixedQuery::Kind::kConnected || has_biconn();
  }

  [[nodiscard]] std::uint32_t component_of(graph::vertex_id v) const {
    amem::count_read();
    return cc_label[v];
  }
  [[nodiscard]] bool connected(graph::vertex_id u, graph::vertex_id v) const {
    amem::count_read(2);
    return cc_label[u] == cc_label[v];
  }
  [[nodiscard]] bool two_edge_connected(graph::vertex_id u,
                                        graph::vertex_id v) const {
    if (u == v) return true;
    amem::count_read(2);
    return tecc_label[u] == tecc_label[v];
  }
  [[nodiscard]] bool is_articulation(graph::vertex_id v) const {
    amem::count_read();
    return (artic_bits[v >> 3] >> (v & 7u)) & 1u;
  }
  /// Is {u, v} a bridge? Binary search of the sorted canonical key list.
  [[nodiscard]] bool is_bridge(graph::vertex_id u, graph::vertex_id v) const;
  /// Do u and v share a biconnected component? Sorted intersection of the
  /// endpoints' block-id rows: O(blocks(u) + blocks(v)) reads.
  [[nodiscard]] bool biconnected(graph::vertex_id u, graph::vertex_id v) const {
    return u == v || common_block(u, v) != 0;
  }
  /// Block id + 1 of edge (u, v), 0 when absent or a self-loop: a binary
  /// search of u's adjacency row, then the one block both endpoints share.
  /// Like the live snapshot's ids, these name blocks within this epoch only.
  [[nodiscard]] std::uint64_t edge_block_id(graph::vertex_id u,
                                            graph::vertex_id v) const;
  /// Block id + 1 of the block holding both u != v, else 0. Two distinct
  /// vertices share at most one block.
  [[nodiscard]] std::uint64_t common_block(graph::vertex_id u,
                                           graph::vertex_id v) const;

  /// Reconstruct the canonical edge list (multiplicities expanded) from the
  /// CSR sections — what recovery feeds Graph::from_edges. Uncounted
  /// extraction, like Graph::edge_list().
  [[nodiscard]] graph::EdgeList edge_list() const;
};

/// Owning derived state for one (n, edges) epoch.
class DerivedState {
 public:
  /// Compute from scratch with the sequential engines. `with_biconn`
  /// selects the full surface (Hopcroft–Tarjan) vs connectivity-only (DSU).
  static DerivedState compute(std::size_t n, const graph::EdgeList& edges,
                              bool with_biconn);

  [[nodiscard]] const QueryView& view() const noexcept { return view_; }
  [[nodiscard]] std::size_t num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return m_; }

  DerivedState(DerivedState&&) = default;
  DerivedState& operator=(DerivedState&&) = default;
  DerivedState(const DerivedState&) = delete;
  DerivedState& operator=(const DerivedState&) = delete;

 private:
  DerivedState() = default;
  void rebind_view(bool with_biconn);

  std::size_t n_ = 0, m_ = 0;
  std::vector<std::uint64_t> csr_offsets_;
  std::vector<std::uint32_t> csr_adj_;
  std::vector<std::uint32_t> cc_label_;
  std::vector<std::uint32_t> tecc_label_;
  std::vector<std::uint8_t> artic_bits_;
  std::vector<std::uint64_t> bridge_keys_;
  std::vector<std::uint64_t> block_offsets_;
  std::vector<std::uint32_t> block_ids_;
  QueryView view_;
};

}  // namespace wecc::persist
