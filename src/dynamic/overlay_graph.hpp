// OverlayGraph: an immutable CSR base graph plus insertion/deletion deltas,
// satisfying GraphView so every static algorithm (implicit decomposition,
// clusters graph, connectivity) runs on the mutated topology unchanged.
//
// The vertex set is fixed at the base graph's n; only edges are dynamic.
// Deltas are stored as *sorted* per-vertex adjacency patches in asymmetric
// memory — inserting or deleting an edge charges O(1) counted writes, never
// O(n) — which is what lets a batch of B updates cost O(B) writes (the
// batch-dynamic analogue of the paper's write-efficiency discipline).
//
// Enumeration is allocation-free: `del_[v]` is kept sorted, and because the
// base CSR adjacency is sorted too, deleted copies are skipped by a
// two-pointer merge instead of a per-call hash map (the old skip map was a
// heap allocation on the rho hot path that every decomposition query walks).
// Enumerating v's neighbors charges 1 + deg_base(v) + |patch(v)| counted
// reads and performs zero heap allocations.
//
// DynamicConnectivity keeps one mutable working OverlayGraph; snapshots
// freeze value copies (cost O(delta), bounded by the compaction threshold),
// so published oracles never observe later mutations.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"

namespace wecc::dynamic {

// edge_key packs both endpoints into one 64-bit word; a wider vertex_id
// would silently alias distinct edges, so refuse to compile until the
// packing is widened along with it.
static_assert(sizeof(graph::vertex_id) <= 4,
              "edge_key packs two vertex ids into 64 bits; widen the key "
              "(e.g. to unsigned __int128) before widening graph::vertex_id");

/// Canonical packing of an undirected edge into one 64-bit key (min vertex
/// in the high half) — the keying shared by the overlay's patch maps and
/// the facade's batch validation.
inline std::uint64_t edge_key(graph::vertex_id u, graph::vertex_id v) {
  const auto lo = std::min(u, v), hi = std::max(u, v);
  return (std::uint64_t(lo) << 32) | hi;
}

class OverlayGraph {
 public:
  explicit OverlayGraph(std::shared_ptr<const graph::Graph> base)
      : base_(std::move(base)) {}

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return base_->num_vertices();
  }

  [[nodiscard]] const graph::Graph& base() const noexcept { return *base_; }

  /// Arcs added plus arcs deleted relative to the base — the quantity the
  /// compaction policy bounds.
  [[nodiscard]] std::size_t delta_size() const noexcept {
    return extra_arcs_ + deleted_arcs_;
  }

  /// Multiplicity of the undirected edge (u, v) in the overlaid graph.
  /// O(log deg(u) + log |patch(u)|) counted reads (patches are sorted).
  [[nodiscard]] std::size_t multiplicity(graph::vertex_id u,
                                         graph::vertex_id v) const {
    // Raw span + explicit charging: one offset-row read plus ~log2(deg)
    // element reads per binary search of equal_range.
    const auto nb = base_->neighbors_raw(u);
    amem::count_read(1 + 2 * std::bit_width(nb.size()));
    const auto [lo, hi] = std::equal_range(nb.begin(), nb.end(), v);
    std::size_t mult = std::size_t(hi - lo);
    mult += patch_count(extra_, u, v);
    mult -= patch_count(del_, u, v);
    return mult;
  }

  /// Insert one copy of edge (u, v); O(1) counted writes per arc (the
  /// sorted-position memmove stays inside the small per-vertex patch
  /// vector, which the update already owns as working memory). Parallel
  /// edges and self-loops are allowed, matching the base representation.
  void insert_edge(graph::vertex_id u, graph::vertex_id v) {
    // Reinserting a deleted base edge un-deletes it, keeping patches small.
    if (erase_one(del_, u, v)) {
      deleted_arcs_ -= (u == v) ? 1 : 2;
      amem::count_write(u == v ? 1 : 2);
      return;
    }
    insert_sorted(extra_[u], v);
    amem::count_write();
    ++extra_arcs_;
    if (u != v) {
      insert_sorted(extra_[v], u);
      amem::count_write();
      ++extra_arcs_;
    }
  }

  /// One undoable mutation record for insert_edge_logged.
  struct InsertUndo {
    graph::vertex_id u = 0, v = 0;
    bool undeleted = false;  // arcs erased from del_ (vs pushed to extra_)
  };
  using UndoLog = std::vector<InsertUndo>;

  /// insert_edge, but records how to invert the mutation so a batch of
  /// insertions can be rolled back without allocating (the facade's strong
  /// exception guarantee on the O(B) fast path). Allocation-prone steps
  /// (log growth, extra_ entry/capacity) run before any logical mutation;
  /// emptied del_ vectors keep their map entry and capacity so undo_inserts
  /// can restore them in place. Call sweep_empty_patches once the batch is
  /// committed or rolled back.
  void insert_edge_logged(graph::vertex_id u, graph::vertex_id v,
                          UndoLog& log) {
    log.push_back({u, v, false});  // may throw; nothing mutated yet
    if (erase_one_keep_entry(del_, u, v)) {
      log.back().undeleted = true;
      deleted_arcs_ -= (u == v) ? 1 : 2;
      amem::count_write(u == v ? 1 : 2);
      return;
    }
    // Ensure capacity up front (may throw; no logical mutation yet) with
    // geometric growth — reserve(size()+1) would reallocate on every
    // insert to the same vertex, turning a hub-heavy batch quadratic.
    const auto grow = [](std::vector<graph::vertex_id>& vec) {
      if (vec.size() == vec.capacity()) {
        vec.reserve(std::max<std::size_t>(4, 2 * vec.size()));
      }
    };
    auto& eu = extra_[u];
    grow(eu);
    if (u != v) {
      // Rehashing invalidates iterators but not references like eu.
      grow(extra_[v]);
    }
    // Nothrow from here: sorted inserts fit in the reserved capacity.
    insert_sorted(eu, v);
    amem::count_write();
    ++extra_arcs_;
    if (u != v) {
      insert_sorted(extra_[v], u);
      amem::count_write();
      ++extra_arcs_;
    }
  }

  /// Invert a prefix of insert_edge_logged calls, newest first. Never
  /// allocates: pushed arcs are erased, and un-deleted arcs go back into
  /// del_ vectors whose entries and capacity erase_one_keep_entry retained.
  void undo_inserts(const UndoLog& log) noexcept {
    for (auto it = log.rbegin(); it != log.rend(); ++it) {
      if (it->undeleted) {
        const auto du = del_.find(it->u);
        assert(du != del_.end());
        insert_sorted(du->second, it->v);
        if (it->u != it->v) {
          const auto dv = del_.find(it->v);
          assert(dv != del_.end());
          insert_sorted(dv->second, it->u);
        }
        deleted_arcs_ += (it->u == it->v) ? 1 : 2;
        amem::count_write(it->u == it->v ? 1 : 2);
      } else {
        const bool erased = erase_one_keep_entry(extra_, it->u, it->v);
        assert(erased);
        (void)erased;
        extra_arcs_ -= (it->u == it->v) ? 1 : 2;
        amem::count_write(it->u == it->v ? 1 : 2);
      }
    }
  }

  /// Drop patch entries a logged-insert batch left empty (they are kept
  /// during the batch so undo_inserts never allocates). Nothrow.
  void sweep_empty_patches(const graph::EdgeList& edges) noexcept {
    const auto sweep = [](Patch& p, graph::vertex_id x) {
      const auto it = p.find(x);
      if (it != p.end() && it->second.empty()) p.erase(it);
    };
    for (const graph::Edge& e : edges) {
      sweep(del_, e.u);
      sweep(del_, e.v);
      sweep(extra_, e.u);
      sweep(extra_, e.v);
    }
  }

  /// Exact delta_size() after inserting `edges`, computed without mutating
  /// anything — the facade uses it to choose between the in-place fast path
  /// and a staged compaction. O(B) expected; scratch allocation only.
  [[nodiscard]] std::size_t delta_after_inserting(
      const graph::EdgeList& edges) const {
    std::size_t delta = delta_size();
    // Remaining un-deletable copies per edge key (insert_edge un-deletes
    // before growing extra_, so model that preference exactly).
    std::unordered_map<std::uint64_t, std::size_t> undeletable;
    for (const graph::Edge& e : edges) {
      const auto [it, fresh] = undeletable.try_emplace(edge_key(e.u, e.v), 0);
      if (fresh) it->second = patch_count(del_, e.u, e.v);
      const std::size_t arcs = (e.u == e.v) ? 1 : 2;
      if (it->second > 0) {
        --it->second;
        delta -= arcs;
      } else {
        delta += arcs;
      }
    }
    return delta;
  }

  /// Does v have any neighbor other than itself in the overlaid graph?
  /// O(log deg(v) + log |patch(v)|) counted reads — binary searches over
  /// the sorted base adjacency and patches instead of an O(deg) scan (the
  /// biconn fast path's articulation rule probes this per batch endpoint).
  /// Exact because del_[v] is a sub-multiset of the base adjacency.
  [[nodiscard]] bool has_non_self_neighbor(graph::vertex_id v) const {
    const auto eit = extra_.find(v);
    amem::count_read();
    if (eit != extra_.end()) {
      const std::vector<graph::vertex_id>& ex = eit->second;
      amem::count_read(2 * std::bit_width(ex.size()));
      const auto [lo, hi] = std::equal_range(ex.begin(), ex.end(), v);
      if (ex.size() > std::size_t(hi - lo)) return true;
    }
    const auto nb = base_->neighbors_raw(v);
    amem::count_read(1 + 2 * std::bit_width(nb.size()));
    const auto [blo, bhi] = std::equal_range(nb.begin(), nb.end(), v);
    std::size_t survivors = nb.size() - std::size_t(bhi - blo);
    const auto dit = del_.find(v);
    amem::count_read();
    if (dit != del_.end()) {
      const std::vector<graph::vertex_id>& dl = dit->second;
      amem::count_read(2 * std::bit_width(dl.size()));
      const auto [dlo, dhi] = std::equal_range(dl.begin(), dl.end(), v);
      survivors -= dl.size() - std::size_t(dhi - dlo);
    }
    return survivors > 0;
  }

  /// Delete one copy of edge (u, v). Returns false (and changes nothing) if
  /// the edge is not present. O(1) expected counted writes per arc (same
  /// small-vector caveat as insert_edge).
  bool delete_edge(graph::vertex_id u, graph::vertex_id v) {
    if (erase_one(extra_, u, v)) {
      extra_arcs_ -= (u == v) ? 1 : 2;
      amem::count_write(u == v ? 1 : 2);
      return true;
    }
    if (multiplicity(u, v) == 0) return false;
    // The edge survives in the base, so del_[v] stays a sorted sub-multiset
    // of the base adjacency — the invariant the enumeration merge rests on.
    insert_sorted(del_[u], v);
    amem::count_write();
    ++deleted_arcs_;
    if (u != v) {
      insert_sorted(del_[v], u);
      amem::count_write();
      ++deleted_arcs_;
    }
    return true;
  }

  /// GraphView enumeration: base neighbors with deleted copies skipped by a
  /// two-pointer merge against the sorted base adjacency, then inserted
  /// neighbors. Charges 1 + deg_base(v) + |patch(v)| reads (plus one probe
  /// per patch map); performs zero heap allocations. Callers that need
  /// globally sorted order sort themselves (as every BFS in wecc does).
  template <typename F>
  void for_neighbors(graph::vertex_id v, F&& fn) const {
    const auto dit = del_.find(v);
    amem::count_read();
    if (dit == del_.end()) {
      base_->for_neighbors(v, fn);
    } else {
      const std::vector<graph::vertex_id>& dels = dit->second;
      const auto nb = base_->neighbors_raw(v);
      amem::count_read(1 + nb.size() + dels.size());
      std::size_t di = 0;
      const std::size_t dn = dels.size();
      for (const graph::vertex_id w : nb) {
        if (di < dn && dels[di] == w) {
          ++di;  // skip one deleted copy
          continue;
        }
        fn(w);
      }
      // Every deleted arc names a live base arc, so the merge must have
      // consumed the whole patch.
      assert(di == dn && "del_[v] not a sub-multiset of the base adjacency");
    }
    const auto eit = extra_.find(v);
    amem::count_read();
    if (eit != extra_.end()) {
      amem::count_read(eit->second.size());
      for (const graph::vertex_id w : eit->second) fn(w);
    }
  }

  /// Materialize the overlaid edge list (canonical (min,max) orientation,
  /// multiplicities expanded) — the compaction input. Uncounted extraction,
  /// like Graph::edge_list().
  [[nodiscard]] graph::EdgeList edge_list() const {
    std::unordered_map<std::uint64_t, std::size_t> removed;
    for (const auto& [u, ws] : del_) {
      for (const graph::vertex_id w : ws) {
        if (w >= u) ++removed[edge_key(u, w)];
      }
    }
    graph::EdgeList out;
    for (const graph::Edge& e : base_->edge_list()) {
      const auto it = removed.find(edge_key(e.u, e.v));
      if (it != removed.end() && it->second > 0) {
        --it->second;
        continue;
      }
      out.push_back(e);
    }
    for (const auto& [u, ws] : extra_) {
      for (const graph::vertex_id w : ws) {
        if (w >= u) out.push_back({u, w});
      }
    }
    return out;
  }

 private:
  /// Per-vertex arc patches; every vector is kept sorted ascending so that
  /// membership tests are binary searches and enumeration merges without
  /// allocating.
  using Patch = std::unordered_map<graph::vertex_id,
                                   std::vector<graph::vertex_id>>;

  static void insert_sorted(std::vector<graph::vertex_id>& vec,
                            graph::vertex_id w) {
    vec.insert(std::upper_bound(vec.begin(), vec.end(), w), w);
  }

  static std::size_t patch_count(const Patch& p, graph::vertex_id u,
                                 graph::vertex_id v) {
    const auto it = p.find(u);
    amem::count_read();
    if (it == p.end()) return 0;
    amem::count_read(2 * std::bit_width(it->second.size()));
    const auto [lo, hi] =
        std::equal_range(it->second.begin(), it->second.end(), v);
    return std::size_t(hi - lo);
  }

  /// Remove one (u,v) arc pair from a patch (one arc for self-loops),
  /// leaving emptied vectors (and their capacity) in the map — the nothrow
  /// building block insert_edge_logged/undo_inserts rely on.
  static bool erase_one_keep_entry(Patch& p, graph::vertex_id u,
                                   graph::vertex_id v) {
    const auto it = p.find(u);
    amem::count_read();
    if (it == p.end()) return false;
    const auto pos =
        std::lower_bound(it->second.begin(), it->second.end(), v);
    amem::count_read(2 * std::bit_width(it->second.size()));
    if (pos == it->second.end() || *pos != v) return false;
    it->second.erase(pos);
    if (u != v) {
      // Arcs are always inserted in pairs, so the reverse arc must exist.
      const auto jt = p.find(v);
      assert(jt != p.end());
      const auto qos =
          std::lower_bound(jt->second.begin(), jt->second.end(), u);
      assert(qos != jt->second.end() && *qos == u);
      jt->second.erase(qos);
    }
    return true;
  }

  /// erase_one_keep_entry plus eager cleanup of emptied map entries.
  static bool erase_one(Patch& p, graph::vertex_id u, graph::vertex_id v) {
    if (!erase_one_keep_entry(p, u, v)) return false;
    const auto it = p.find(u);
    if (it != p.end() && it->second.empty()) p.erase(it);
    if (u != v) {
      const auto jt = p.find(v);
      if (jt != p.end() && jt->second.empty()) p.erase(jt);
    }
    return true;
  }

  std::shared_ptr<const graph::Graph> base_;
  Patch extra_;  // inserted arcs, both directions (self-loops once)
  Patch del_;    // deleted arcs, both directions (self-loops once)
  std::size_t extra_arcs_ = 0;
  std::size_t deleted_arcs_ = 0;
};

static_assert(graph::GraphView<OverlayGraph>);

/// Strong exception safety for deletions, shared by the dynamic facades:
/// verify the whole batch against the working overlay (with per-edge
/// multiplicities) before anything is staged or mutated.
inline void validate_deletions_exist(const OverlayGraph& working,
                                     const graph::EdgeList& deletions) {
  std::unordered_map<std::uint64_t, std::size_t> want;
  for (const graph::Edge& e : deletions) ++want[edge_key(e.u, e.v)];
  for (const auto& [key, cnt] : want) {
    const auto lo = graph::vertex_id(key >> 32);
    const auto hi = graph::vertex_id(key);
    if (working.multiplicity(lo, hi) < cnt) {
      throw std::invalid_argument(
          "deleting edge (" + std::to_string(lo) + ", " +
          std::to_string(hi) + ") more times than it is present");
    }
  }
}

}  // namespace wecc::dynamic
