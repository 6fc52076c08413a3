// §4.2: write-efficient parallel connectivity and spanning forest
// (Theorem 4.2). One low-diameter decomposition with a small beta, spanning
// trees inside each part (the LDD's own BFS parents), a write-efficient
// filter to materialize the O(beta m) cross-part edges, and a linear-work
// pass on the contracted graph.
//
// Costs: O(n + beta m) expected writes and O(m + beta omega m + omega n)
// expected work; beta = 1/omega gives the headline O(n + m/omega) writes /
// O(m + omega n) work row of Table 1.
#pragma once

#include <algorithm>
#include <cstdint>

#include "connectivity/cc_common.hpp"
#include "ldd/ldd.hpp"
#include "parallel/scan.hpp"
#include "primitives/union_find.hpp"

namespace wecc::connectivity {

struct WeCcOptions {
  double beta = 0.125;      // callers pass 1.0 / omega
  std::uint64_t seed = 42;
  bool want_forest = false;
};

/// A cross-part edge with provenance: (cu, cv) in the contracted graph came
/// from original edge (u, v). Provenance is what lets the spanning forest —
/// and later the §5.3 clusters spanning tree — name real graph edges.
struct ContractedEdge {
  graph::vertex_id cu, cv;  // LDD cluster centers
  graph::vertex_id u, v;    // original endpoints
};

template <graph::GraphView G>
ForestResult we_connectivity(const G& g, const WeCcOptions& opt) {
  using graph::vertex_id;
  const std::size_t n = g.num_vertices();

  // Step 1+2: LDD with its per-part BFS spanning trees.
  ldd::LddResult dec =
      ldd::decompose(g, opt.beta, opt.seed, opt.want_forest);

  // Step 3: write-efficient filter of cross-part edges (u < w dedups the
  // two directions; parallel edges between parts are kept — harmless).
  amem::asym_array<ContractedEdge> cross;
  {
    const auto buf = parallel::gather_blocks<ContractedEdge>(
        0, n, 512, [&](std::size_t lo, std::size_t hi, auto& local) {
          amem::SymScratch scratch(0);
          for (std::size_t uu = lo; uu < hi; ++uu) {
            const auto u = vertex_id(uu);
            const vertex_id cu = dec.cluster.read(u);
            g.for_neighbors(u, [&](vertex_id w) {
              if (w <= u) return;
              const vertex_id cw = dec.cluster.read(w);
              if (cw != cu) {
                local.push_back({cu, cw, u, w});
                scratch.grow(4);
              }
            });
          }
        });
    std::size_t total = 0;
    for (const auto& bb : buf) total += bb.size();
    cross.reserve(total);
    for (const auto& bb : buf) {
      for (const auto& e : bb) cross.push_back(e);  // counted writes
    }
  }

  // Step 4: linear-work pass on the contracted graph (its size is
  // O(n/omega-ish + beta m), so even a write-heavy DSU is within budget).
  std::vector<vertex_id> centers_sorted(dec.centers);
  std::sort(centers_sorted.begin(), centers_sorted.end());
  const auto center_index = [&](vertex_id c) {
    amem::count_read(2);
    return vertex_id(std::lower_bound(centers_sorted.begin(),
                                      centers_sorted.end(), c) -
                     centers_sorted.begin());
  };
  primitives::UnionFind uf(centers_sorted.size());

  ForestResult out;
  for (std::size_t i = 0; i < cross.size(); ++i) {
    const ContractedEdge e = cross.read(i);
    if (uf.unite(center_index(e.cu), center_index(e.cv)) && opt.want_forest) {
      amem::count_write();
      out.edges.push_back({e.u, e.v});
    }
  }

  // Component label of each center: canonical = smallest center vertex id
  // in the DSU class (DSU roots are minimal indices and centers_sorted is
  // ascending, so the root's vertex id is already the minimum).
  std::vector<vertex_id> center_label(centers_sorted.size());
  for (std::size_t i = 0; i < centers_sorted.size(); ++i) {
    const vertex_id root = uf.find(vertex_id(i));
    center_label[i] = centers_sorted[root];
    amem::count_write();
    if (root == vertex_id(i)) out.cc.num_components++;
  }

  // Final labels + in-part forest edges.
  out.cc.label.resize(n);
  parallel::parallel_for(0, n, [&](std::size_t v) {
    const vertex_id c = dec.cluster.read(vertex_id(v));
    out.cc.label.write(v, center_label[center_index(c)]);
    amem::count_read();
  });
  if (opt.want_forest) {
    for (std::size_t v = 0; v < n; ++v) {
      const vertex_id p = dec.parent.read(vertex_id(v));
      if (p != vertex_id(v)) {
        amem::count_write();
        out.edges.push_back({p, vertex_id(v)});
      }
    }
  }
  return out;
}

template <graph::GraphView G>
CcResult we_cc(const G& g, double beta, std::uint64_t seed = 42) {
  WeCcOptions opt;
  opt.beta = beta;
  opt.seed = seed;
  return we_connectivity(g, opt).cc;
}

}  // namespace wecc::connectivity
