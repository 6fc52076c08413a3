// Block-merge patch algebra primitives: the key space and union structures
// that let BiconnPatch express cycle-closing edge insertions as O(B)-write
// block merges instead of selective rebuilds (docs/patch_algebra.md).
//
//  * block_key / patch_block_key — frozen BccIds and patch-born blocks
//    folded into one 64-bit key space, so a union-find over block ids can
//    merge a frozen block with a block that only exists in the patch.
//  * PatchUnion — persistent (no path compression) union-find over u64
//    keys, the LabelPatch discipline: find() is const and pure so snapshot
//    copies answer queries without mutating shared chains; unite() is one
//    counted write. Winner selection is deterministic (smaller root key),
//    which keeps published snapshots bit-identical across rebuild thread
//    counts.
//  * bounded_path_search — the bounded bidirectional BFS the fast-insert
//    planner uses to find the cycle a block-merging insertion closes, and
//    that the deletion triage certificate reuses for its disjoint-path
//    checks. Gives up after visiting `limit` vertices so one adversarial
//    edge cannot turn the O(B)-write fast path into a full traversal.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "amem/counters.hpp"
#include "biconn/biconn_oracle.hpp"
#include "graph/graph.hpp"

namespace wecc::dynamic {

/// Frozen-oracle block ids carry a 2-bit kind plus a value; patch-born
/// blocks (bridges absorbed by the fast path) get their own tag. Tag 0 is
/// reserved as "no block" so a zero key can mean "edge absent / self-loop"
/// everywhere block ids travel (snapshot queries, the wire protocol).
constexpr std::uint64_t kBlockTagShift = 60;
constexpr std::uint64_t kPatchBlockTag = 4;

[[nodiscard]] inline std::uint64_t block_key(const biconn::BccId& id) {
  return ((std::uint64_t(id.kind) + 1) << kBlockTagShift) | id.value;
}
[[nodiscard]] inline std::uint64_t patch_block_key(std::uint64_t counter) {
  return (kPatchBlockTag << kBlockTagShift) | counter;
}

/// Persistent union-find over 64-bit keys. Keys absent from the map are
/// their own roots, so the structure is O(#unions) space no matter how many
/// distinct keys queries probe. No path compression: find() must stay pure
/// (it runs concurrently from readers holding snapshot copies), so chains
/// are walked as written — O(#unions) worst case, short in practice.
class PatchUnion {
 public:
  [[nodiscard]] std::uint64_t find(std::uint64_t key) const {
    amem::count_read();
    auto it = parent_.find(key);
    while (it != parent_.end()) {
      key = it->second;
      it = parent_.find(key);
    }
    return key;
  }

  /// Merge the classes of a and b; returns the surviving root (the smaller
  /// key — deterministic, independent of call order history only through
  /// the union structure itself). One counted write when a merge happens.
  std::uint64_t unite(std::uint64_t a, std::uint64_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return a;
    if (b < a) std::swap(a, b);
    parent_.emplace(b, a);
    amem::count_write();
    return a;
  }

  [[nodiscard]] bool empty() const noexcept { return parent_.empty(); }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> parent_;
};

/// Bounded bidirectional BFS u -> v over an arbitrary neighbor enumerator;
/// returns the vertex sequence u..v of a simple such path, or empty when v
/// is unreachable within `limit` visited vertices (both trees combined).
/// `for_neighbors(x, fn)` enumerates x's neighbors; `skip(w)` excludes
/// vertices (the disjoint-path certificate masks the first path's interior
/// with it). One BFS tree grows from each endpoint and the smaller frontier
/// expands first, so a u–v distance of d costs ~2·ball(d/2) visits instead
/// of ball(d) — on the bridge-chained components dense churn builds, the
/// difference between absorbing a merge and giving up. The trees stay
/// vertex-disjoint (a vertex claimed by both ends the search), so splicing
/// at the meet yields a simple path. Tree maps and frontiers are symmetric
/// scratch — the enumerator charges its own reads.
template <typename ForNeighbors, typename Skip>
[[nodiscard]] std::vector<graph::vertex_id> bounded_path_search(
    graph::vertex_id u, graph::vertex_id v, std::size_t limit,
    ForNeighbors&& for_neighbors, Skip&& skip) {
  if (u == v) return {u};
  std::unordered_map<graph::vertex_id, graph::vertex_id> tree[2];
  std::vector<graph::vertex_id> frontier[2];
  tree[0].emplace(u, u);
  tree[1].emplace(v, v);
  frontier[0].push_back(u);
  frontier[1].push_back(v);
  std::vector<graph::vertex_id> next;
  graph::vertex_id meet = graph::kNoVertex;
  while (meet == graph::kNoVertex && !frontier[0].empty() &&
         !frontier[1].empty() &&
         tree[0].size() + tree[1].size() <= limit) {
    const int side = frontier[0].size() <= frontier[1].size() ? 0 : 1;
    auto& mine = tree[side];
    const auto& theirs = tree[1 - side];
    next.clear();
    for (const graph::vertex_id x : frontier[side]) {
      for_neighbors(x, [&](graph::vertex_id w) {
        if (meet != graph::kNoVertex || w == x || skip(w)) return;
        if (!mine.emplace(w, x).second) return;
        if (theirs.count(w) != 0) {
          meet = w;
          return;
        }
        next.push_back(w);
      });
      if (meet != graph::kNoVertex ||
          tree[0].size() + tree[1].size() > limit) {
        break;
      }
    }
    frontier[side].swap(next);
  }
  if (meet == graph::kNoVertex) return {};
  std::vector<graph::vertex_id> path;
  for (graph::vertex_id x = meet;;) {
    path.push_back(x);
    const graph::vertex_id p = tree[0].at(x);
    if (p == x) break;
    x = p;
  }
  std::reverse(path.begin(), path.end());  // now u .. meet
  for (graph::vertex_id x = meet;;) {
    const graph::vertex_id p = tree[1].at(x);
    if (p == x) break;
    x = p;
    path.push_back(x);
  }
  return path;
}

template <typename ForNeighbors>
[[nodiscard]] std::vector<graph::vertex_id> bounded_path_search(
    graph::vertex_id u, graph::vertex_id v, std::size_t limit,
    ForNeighbors&& for_neighbors) {
  return bounded_path_search(u, v, limit,
                             std::forward<ForNeighbors>(for_neighbors),
                             [](graph::vertex_id) { return false; });
}

}  // namespace wecc::dynamic
