// Implementation of ldd::decompose (included from ldd.hpp).
#pragma once

#include <algorithm>
#include <cmath>

#include "amem/sym_scratch.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/rng.hpp"

namespace wecc::ldd {

template <graph::GraphView G>
LddResult decompose(const G& g, double beta, std::uint64_t seed,
                    bool want_parent) {
  using graph::kNoVertex;
  using graph::vertex_id;
  const std::size_t n = g.num_vertices();

  LddResult r;
  r.cluster.resize(n, kNoVertex);
  if (want_parent) r.parent.resize(n, kNoVertex);

  // Start time of v's BFS: delta_max - delta_v (a *larger* shift starts
  // *earlier*, so u is claimed by argmin_v (d(u,v) - delta_v) up to round
  // granularity — the Miller–Peng–Xu rule; arbitrary same-round ties are
  // fine per Shun et al. [43]). Shifts are recomputed from the seed, so the
  // only materialized start-time state is the bucket sort itself: one write
  // per vertex, within Theorem 4.1's O(n) budget.
  double delta_max = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    amem::count_read();
    delta_max = std::max(delta_max, parallel::exponential(seed, v, beta));
  }
  std::uint32_t max_start = 0;
  std::vector<std::vector<vertex_id>> buckets(
      std::size_t(delta_max) + 2);
  for (std::size_t v = 0; v < n; ++v) {
    const auto s =
        std::uint32_t(delta_max - parallel::exponential(seed, v, beta));
    amem::count_read();
    buckets[s].push_back(vertex_id(v));
    amem::count_write();
    max_start = std::max(max_start, s);
  }

  std::vector<vertex_id> frontier, next;
  std::size_t claimed = 0;
  for (std::uint32_t iter = 0; claimed < n; ++iter) {
    // New sources whose start time has arrived.
    if (iter < buckets.size()) {
      for (vertex_id s : buckets[iter]) {
        amem::count_read();
        if (r.cluster.read(s) != kNoVertex) continue;
        r.cluster.write(s, s);
        if (want_parent) r.parent.write(s, s);
        r.centers.push_back(s);
        frontier.push_back(s);
        ++claimed;
      }
    }
    if (frontier.empty()) {
      if (iter >= buckets.size() && claimed < n) {
        // All buckets drained yet vertices remain: they are in components
        // none of whose start times have arrived — cannot happen since
        // every vertex has a bucket; defensive only.
        break;
      }
      r.rounds = iter + 1;
      continue;
    }
    // Advance all live BFS's one level. Candidates gather in scratch;
    // commit claims once per vertex (min-claimer wins: deterministic).
    const auto cand = parallel::gather_blocks<std::pair<vertex_id, vertex_id>>(
        0, frontier.size(), 64,
        [&](std::size_t lo, std::size_t hi, auto& local) {
          amem::SymScratch scratch(0);
          for (std::size_t i = lo; i < hi; ++i) {
            const vertex_id u = frontier[i];
            g.for_neighbors(u, [&](vertex_id w) {
              if (r.cluster.read(w) == kNoVertex) {
                local.push_back({w, u});
                scratch.grow(2);
              }
            });
          }
        });
    std::vector<std::pair<vertex_id, vertex_id>> all;
    for (const auto& c : cand) all.insert(all.end(), c.begin(), c.end());
    std::sort(all.begin(), all.end());
    next.clear();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (i > 0 && all[i].first == all[i - 1].first) continue;
      const auto [w, u] = all[i];
      if (r.cluster.read(w) != kNoVertex) continue;
      r.cluster.write(w, r.cluster.read(u));
      if (want_parent) r.parent.write(w, u);
      next.push_back(w);
      ++claimed;
    }
    frontier.swap(next);
    r.rounds = iter + 1;
  }
  return r;
}

}  // namespace wecc::ldd
