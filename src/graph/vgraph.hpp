// §6: implicit bounded-degree transformation of an unbounded-degree graph.
//
// Every vertex v with deg(v) > B is replaced by an *implicit* binary tree:
// v stays as the root, internal nodes fan out, and each leaf carries up to B
// consecutive slots of v's (sorted) adjacency list. A graph edge (u,w) is
// re-attached leaf-to-leaf; the matching instance position on the other side
// is found by binary search in the sorted adjacency list (the "presorted
// edge lists" option of §6 — O(log n) reads per edge lookup, no writes and
// no materialized storage, exactly as the paper requires).
//
// Virtual nodes are addressed by a fixed global numbering
//   [0, n)                      original vertices,
//   [n, n + total_virtual)      virtual nodes, grouped per vertex in heap
//                               order (node 0 of a tree is v itself).
// The resulting VGraph satisfies GraphView with max degree <= B + 1, so the
// implicit k-decomposition and both oracles run on it unchanged.
//
// Query mapping back to G (validated in vgraph_test):
//  * connectivity: unchanged (virtual trees hang off their vertex);
//  * bridges: a G-edge is a bridge iff its leaf-to-leaf image is;
//  * biconnected components: two G-edges share a G-BCC iff their images
//    share a G'-BCC (cycles lift and project); vertex-pair and articulation
//    queries reduce to incident-edge label comparisons (§6 discussion).
#pragma once

#include <cstdint>
#include <vector>

#include "amem/counters.hpp"
#include "graph/graph.hpp"

namespace wecc::graph {

class VGraph {
 public:
  /// `leaf_width` is B above; resulting degree bound is B + 1 (leaf: parent
  /// + B slot edges; internal: parent + 2 children; root: <= 2 children or
  /// its own <= B slots when deg(v) <= B).
  explicit VGraph(const Graph& g, std::size_t leaf_width = 4);

  [[nodiscard]] std::size_t num_vertices() const noexcept { return total_; }
  [[nodiscard]] std::size_t leaf_width() const noexcept { return width_; }
  [[nodiscard]] std::size_t degree_bound() const noexcept {
    return width_ + 1;
  }

  /// GraphView neighbor enumeration (charges reads for the CSR accesses and
  /// binary searches it performs; never writes).
  template <typename F>
  void for_neighbors(vertex_id x, F&& fn) const {
    if (x < n_) {
      original_neighbors(vertex_id(x), fn);
    } else {
      virtual_neighbors(x, fn);
    }
  }

  /// Image of the G-edge instance at arc position `pos` of vertex `u`
  /// (pos indexes u's sorted adjacency): the two G' endpoints.
  [[nodiscard]] std::pair<vertex_id, vertex_id> edge_image(
      vertex_id u, std::size_t pos) const;

  /// Node carrying arc slot `pos` of vertex v (v itself when not split).
  [[nodiscard]] vertex_id slot_node(vertex_id v, std::size_t pos) const;

  /// The original vertex a (possibly virtual) node belongs to.
  [[nodiscard]] vertex_id owner(vertex_id x) const;

 private:
  template <typename F>
  void original_neighbors(vertex_id v, F&& fn) const {
    if (tree_size(v) == 0) {
      // Not split: edges attach directly, but remote ends may be leaves.
      const std::size_t deg = g_->degree_raw(v);
      amem::count_read(1 + deg);
      for (std::size_t p = 0; p < deg; ++p) fn(remote_end(v, p));
    } else {
      // Root of a split tree: children are heap nodes 1 and (maybe) 2.
      const std::size_t t = tree_size(v);
      if (t > 1) fn(global_id(v, 1));
      if (t > 2) fn(global_id(v, 2));
    }
  }

  template <typename F>
  void virtual_neighbors(vertex_id x, F&& fn) const {
    const vertex_id v = owner_[x - n_];
    const std::size_t t = tree_size(v);
    const std::size_t heap = std::size_t(x - n_ - offsets_[v]) + 1;
    amem::count_read();  // locating the tree (offset lookup)
    const std::size_t hp = (heap - 1) / 2;
    fn(hp == 0 ? v : global_id(v, hp));
    const std::size_t leaves = (t + 1) / 2;
    if (heap < leaves - 1) {
      // Internal node: two children (a heap with L leaves is full).
      fn(global_id(v, 2 * heap + 1));
      fn(global_id(v, 2 * heap + 2));
    } else {
      // Leaf: adjacency slots [l*width, min(deg, (l+1)*width)).
      const std::size_t l = heap - (leaves - 1);
      const std::size_t deg = g_->degree_raw(v);
      const std::size_t lo = l * width_;
      const std::size_t hi = lo + width_ < deg ? lo + width_ : deg;
      for (std::size_t p = lo; p < hi; ++p) fn(remote_end(v, p));
    }
  }

  /// Heap size of v's tree (0 when deg(v) <= width_).
  [[nodiscard]] std::size_t tree_size(vertex_id v) const noexcept {
    return offsets_[v + 1] - offsets_[v] == 0
               ? 0
               : offsets_[v + 1] - offsets_[v] + 1;  // +1 for the root v
  }
  [[nodiscard]] vertex_id global_id(vertex_id v, std::size_t heap) const {
    // heap >= 1 (heap 0 is v itself).
    return vertex_id(n_ + offsets_[v] + (heap - 1));
  }

  /// G' endpoint on the far side of arc slot `pos` of v.
  [[nodiscard]] vertex_id remote_end(vertex_id v, std::size_t pos) const;

  const Graph* g_;
  std::size_t n_ = 0;
  std::size_t width_ = 4;
  std::size_t total_ = 0;
  std::vector<std::uint64_t> offsets_;  // per-vertex virtual-node offsets
  std::vector<vertex_id> owner_;        // owner of each virtual node
};

static_assert(GraphView<VGraph>);

}  // namespace wecc::graph
