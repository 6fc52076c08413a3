// Breadth-first searches.
//
// * `bfs_forest` — sequential lexicographic BFS. With ascending adjacency it
//   explores in exactly the tie-broken shortest-path order of §3, and its
//   asymmetric costs are the classic O(m) reads / O(n) writes.
// * `parallel_bfs_tree` — the write-efficient parallel BFS of Ben-David et
//   al. [9] in deterministic two-phase form: writes are proportional to the
//   number of vertices claimed (O(n) total), never to edges; each round
//   gathers candidate (parent, child) pairs into symmetric scratch, dedups,
//   and commits one write per newly claimed vertex. This is the subroutine
//   Theorem 4.1 (write-efficient low-diameter decomposition) relies on.
//
// Both are templated over GraphView so they run on explicit CSR graphs, the
// §6 virtualized graphs, and the implicit clusters graph alike.
#pragma once

#include <algorithm>
#include <vector>

#include "amem/asym_array.hpp"
#include "amem/sym_scratch.hpp"
#include "graph/graph.hpp"
#include "parallel/parallel_for.hpp"

namespace wecc::primitives {

using graph::kNoVertex;
using graph::vertex_id;

/// Rooted spanning forest: parent[v] (== v for roots) and a BFS vertex
/// ordering (roots first within their component, non-decreasing depth).
struct SpanningForest {
  amem::asym_array<vertex_id> parent;
  std::vector<vertex_id> order;  // BFS order; prefix of each component
  std::size_t num_roots = 0;
};

/// Sequential lexicographic BFS over the whole graph (all components, roots
/// chosen in ascending id order) or from a single source when given.
template <graph::GraphView G>
SpanningForest bfs_forest(const G& g, vertex_id source = kNoVertex) {
  const std::size_t n = g.num_vertices();
  SpanningForest f;
  f.parent.resize(n, kNoVertex);
  f.order.reserve(n);
  std::vector<vertex_id> frontier, next;

  auto run_from = [&](vertex_id r) {
    f.parent.write(r, r);
    f.num_roots++;
    f.order.push_back(r);
    frontier.assign(1, r);
    while (!frontier.empty()) {
      next.clear();
      for (vertex_id u : frontier) {
        g.for_neighbors(u, [&](vertex_id w) {
          if (f.parent.read(w) == kNoVertex) {
            f.parent.write(w, u);
            f.order.push_back(w);
            next.push_back(w);
          }
        });
      }
      frontier.swap(next);
    }
  };

  if (source != kNoVertex) {
    run_from(source);
  } else {
    for (vertex_id r = 0; r < n; ++r) {
      if (f.parent.read(r) == kNoVertex) run_from(r);
    }
  }
  return f;
}

/// One parallel write-efficient BFS from `source` over vertices where
/// `claimed` is still kNoVertex; claims them by writing their parent into
/// `claimed`. Returns the number of vertices claimed. Deterministic:
/// candidates are deduped with minimum parent id winning.
template <graph::GraphView G>
std::size_t parallel_bfs_tree(const G& g, vertex_id source,
                              amem::asym_array<vertex_id>& claimed) {
  if (claimed.read(source) != kNoVertex) return 0;
  claimed.write(source, source);
  std::size_t total = 1;
  std::vector<vertex_id> frontier{source};

  while (!frontier.empty()) {
    // Phase 1 (reads only): gather (child, parent) candidates per block.
    const auto cand = parallel::gather_blocks<std::pair<vertex_id, vertex_id>>(
        0, frontier.size(), 64,
        [&](std::size_t lo, std::size_t hi, auto& local) {
          amem::SymScratch scratch(0);
          for (std::size_t i = lo; i < hi; ++i) {
            const vertex_id u = frontier[i];
            g.for_neighbors(u, [&](vertex_id w) {
              if (claimed.read(w) == kNoVertex) {
                local.push_back({w, u});
                scratch.grow(2);
              }
            });
          }
        });
    // Phase 2 (sequential commit): dedup, min parent wins, one write per
    // newly claimed vertex — the write-efficiency invariant.
    std::vector<std::pair<vertex_id, vertex_id>> all;
    for (const auto& c : cand) {
      all.insert(all.end(), c.begin(), c.end());
    }
    std::sort(all.begin(), all.end());
    frontier.clear();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (i > 0 && all[i].first == all[i - 1].first) continue;
      const auto [w, p] = all[i];
      if (claimed.read(w) != kNoVertex) continue;  // raced with earlier BFS
      claimed.write(w, p);
      frontier.push_back(w);
      ++total;
    }
  }
  return total;
}

}  // namespace wecc::primitives
