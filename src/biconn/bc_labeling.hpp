// §5.2: the BC (biconnected-component) labeling — an O(n)-size
// biconnectivity output constructible with O(n + m/omega) writes
// (Lemma 5.1, Theorem 5.2), replacing the classic Theta(m)-size per-edge
// array of Tarjan–Vishkin.
//
// Pipeline (all steps write-efficient):
//   1. BFS spanning forest + Euler-tour first/last/depth.
//   2. w(u) = min(first(u), min{first(u') : (u,u') non-tree});
//      W(u) = the max analogue. Parallel-edge rule: the instances of
//      (u, parent(u)) beyond the one tree instance count as non-tree edges
//      (deviation from footnote 3; required for multigraph bridges).
//   3. low/high = leaffix min/max of w/W over subtrees.
//   4. critical tree edge (p,u): first(p) <= low(u) and high(u) <= last(p).
//   5. Connectivity over the graph minus critical tree edges labels each
//      vertex l(v); the head r[c] of component c is the tree parent of any
//      c-vertex whose (critical) parent edge leaves c — provably unique —
//      or the tree root for the root's component. BCC c = comp(c) + head.
//   6. 2-edge-connected labels: connectivity minus bridges (for the
//      1-edge-connectivity queries of §5.3's query set).
//
// Queries (all O(1)-ish reads, no writes): articulation points, bridges,
// per-edge BCC labels (the classic output, now computed on demand),
// same-BCC and 2-edge-connectivity of vertex pairs, block-cut tree export.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "connectivity/seq_cc.hpp"
#include "connectivity/we_cc.hpp"
#include "primitives/bfs.hpp"
#include "primitives/euler_tour.hpp"

namespace wecc::biconn {

struct BcOptions {
  /// Use the §4.2 write-efficient parallel connectivity (beta = 1/omega)
  /// for step 5 instead of sequential BFS (same asymptotics, Thm 5.2).
  bool parallel_cc = false;
  double beta = 0.125;
  std::uint64_t seed = 99;
};

class BcLabeling {
 public:
  template <graph::GraphView G>
  static BcLabeling build(const G& g, const BcOptions& opt = {});

  static constexpr std::uint32_t kNoComp = ~std::uint32_t{0};

  /// Number of biconnected components.
  [[nodiscard]] std::size_t num_bcc() const noexcept { return head_.size(); }

  /// The vertex label l(v): the BCC that contains v and v's tree-parent
  /// edge. kNoComp for tree roots and isolated vertices.
  [[nodiscard]] std::uint32_t label(graph::vertex_id v) const {
    amem::count_read();
    return label_[v];
  }

  /// The head r[c] of BCC c (the component's articulation anchor).
  [[nodiscard]] graph::vertex_id head(std::uint32_t c) const {
    amem::count_read();
    return head_[c];
  }

  /// Is v an articulation point? O(1) reads.
  [[nodiscard]] bool is_articulation(graph::vertex_id v) const {
    amem::count_read(2);
    const bool is_root = tree_.parent[v] == v;
    return is_root ? heads_count_[v] >= 2 : heads_count_[v] >= 1;
  }

  /// Is {u, v} a bridge? (False for any non-tree instance, including
  /// parallel duplicates of tree edges.) O(log n) reads for the
  /// multiplicity probe.
  template <graph::GraphView G>
  [[nodiscard]] bool is_bridge(const G& g, graph::vertex_id u,
                               graph::vertex_id v) const;

  /// The classic per-edge output, on demand: BCC label of edge {u,v}
  /// (label of the endpoint farther from the root). O(1) reads.
  [[nodiscard]] std::uint32_t edge_label(graph::vertex_id u,
                                         graph::vertex_id v) const {
    amem::count_read(2);
    return tree_.depth[u] >= tree_.depth[v] ? label_[u] : label_[v];
  }

  /// Do u and v share a biconnected component? O(1) reads.
  [[nodiscard]] bool same_bcc(graph::vertex_id u, graph::vertex_id v) const {
    if (u == v) return label_[u] != kNoComp || heads_count_[u] > 0;
    amem::count_read(4);
    const std::uint32_t lu = label_[u], lv = label_[v];
    if (lu != kNoComp && lu == lv) return true;
    if (lv != kNoComp && head_[lv] == u) return true;
    if (lu != kNoComp && head_[lu] == v) return true;
    // u and v might both be heads of the same BCC only if equal (heads are
    // unique per BCC), already handled.
    return false;
  }

  /// Are u and v 2-edge-connected (no bridge separates them)? O(1) reads.
  [[nodiscard]] bool two_edge_connected(graph::vertex_id u,
                                        graph::vertex_id v) const {
    amem::count_read(2);
    return tecc_[u] == tecc_[v];
  }

  /// Are u and v in the same connected component?
  [[nodiscard]] bool same_component(graph::vertex_id u,
                                    graph::vertex_id v) const {
    amem::count_read(2);
    return cc_of_root_[root_of(u)] == cc_of_root_[root_of(v)];
  }

  /// Block-cut tree: node ids are [0, num_bcc) for blocks and
  /// num_bcc + a for each articulation point a (dense articulation index
  /// in `artics`). Edges connect blocks to the articulation points they
  /// contain.
  struct BlockCutTree {
    std::vector<graph::vertex_id> artics;  // articulation vertices, asc
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    std::size_t num_blocks = 0;
  };
  [[nodiscard]] BlockCutTree block_cut_tree() const;

  /// Bridge-block tree (§5.3's 1-edge-connectivity query family): nodes
  /// are the 2-edge-connected components, edges are the bridges of G.
  /// Node ids are canonical tecc labels.
  struct BridgeBlockTree {
    std::vector<std::uint32_t> comp_of;  // per vertex: its tree node
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  // bridges
    std::size_t num_components = 0;      // 2-edge-connected components
  };
  [[nodiscard]] BridgeBlockTree bridge_block_tree() const;

  /// 2-edge-connected component label of v (canonical across queries).
  [[nodiscard]] std::uint32_t tecc_label(graph::vertex_id v) const {
    amem::count_read();
    return tecc_[v];
  }

  /// Spanning-forest arrays (read-only access for tests and the oracle).
  [[nodiscard]] const primitives::TreeArrays& tree() const noexcept {
    return tree_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& low() const noexcept {
    return low_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& high() const noexcept {
    return high_;
  }

 private:
  [[nodiscard]] graph::vertex_id root_of(graph::vertex_id v) const {
    while (tree_.parent[v] != v) v = tree_.parent[v];
    return v;
  }

  primitives::TreeArrays tree_;
  std::vector<std::uint32_t> low_, high_;
  std::vector<std::uint32_t> label_;        // l(v), kNoComp for roots
  std::vector<graph::vertex_id> head_;      // r[c]
  std::vector<std::uint32_t> comp_size_;    // per BCC component
  std::vector<std::uint32_t> heads_count_;  // #BCCs headed, per vertex
  std::vector<std::uint8_t> critical_;      // is (parent(v), v) critical
  std::vector<std::uint8_t> dup_parent_;    // (parent(v), v) is doubled
  std::vector<std::uint32_t> tecc_;         // 2-edge-connected label
  std::vector<graph::vertex_id> cc_of_root_;
};

}  // namespace wecc::biconn

#include "biconn/bc_labeling_impl.hpp"
