// Epoch-versioned snapshots of the dynamic *biconnectivity* structure.
//
//  * BiconnPatch — the O(B)-write absorption state between rebuilds. On top
//    of the original bridge/articulation/touched sets it carries the
//    block-merge algebra (docs/patch_algebra.md): a union-find over block
//    ids (frozen BccIds and patch-born bridge blocks folded into one key
//    space by block_merge.hpp), per-edge block ids and adjacency for
//    patch-inserted edges, deletion masks over frozen edges, demoted
//    bridges, 2ec anchor groups, and the ordered insert-event journal the
//    deletion triage replays.
//  * VersionedBiconnOracle — one built §5.3 oracle bundled with the frozen
//    overlay graph it reads.
//  * BiconnPatchView — the query/enumeration logic over (frozen oracle,
//    patch), shared verbatim between the published BiconnSnapshot and the
//    fast-path planner (which runs it against a *staged* patch mid-plan).
//  * BiconnSnapshot — an immutable query view (epoch, oracle version,
//    patch) answering the full surface: connected / component_of /
//    biconnected / two_edge_connected / is_articulation / is_bridge /
//    edge_block_id (edge_bcc made patch-aware: patch-inserted edges answer
//    through their merged block class).
//  * BiconnSnapshotStore — the same bounded ring as connectivity uses.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "biconn/biconn_oracle.hpp"
#include "dynamic/block_merge.hpp"
#include "dynamic/overlay_graph.hpp"
#include "dynamic/snapshot_store.hpp"

namespace wecc::dynamic {

/// Patch state carried between biconnectivity rebuilds. All containers are
/// O(#absorbed operations); every mutation is O(1) counted writes (anchors
/// are keyed by the frozen oracle's canonical 2ec class, so anchor lookup
/// is one hash probe).
class BiconnPatch {
 public:
  /// Connectivity merges (canonical component labels).
  LabelPatch conn;

  struct PatchEdge {
    std::uint64_t block = 0;  ///< raw class key; 0 = blockless (self-loop)
    std::uint32_t copies = 0;
  };

  // --- patched bridges (cross-component fast-path insertions) ---

  /// Record the patched bridge edge (u, v).
  void add_bridge(graph::vertex_id u, graph::vertex_id v) {
    bridges_.insert(edge_key(u, v));
    amem::count_write();
  }
  [[nodiscard]] bool is_patched_bridge(graph::vertex_id u,
                                       graph::vertex_id v) const {
    amem::count_read();
    return bridges_.count(edge_key(u, v)) != 0;
  }

  /// Promote v to an articulation point (a patched bridge promotion; block
  /// merges supersede this set inside merged components, where articulation
  /// answers are recomputed from incident block classes).
  void add_articulation(graph::vertex_id v) {
    artics_.insert(v);
    amem::count_write();
  }
  [[nodiscard]] bool is_patched_articulation(graph::vertex_id v) const {
    amem::count_read();
    return artics_.count(v) != 0;
  }

  // --- touched components (selective-rebuild breadcrumbs) ---

  /// Remember that an absorbed edge touched the component with this old
  /// label — the set the next selective rebuild must treat as dirty (even
  /// answer-preserving edges can shift cluster membership once the overlay
  /// becomes the frozen graph of the next oracle version).
  void touch_component(graph::vertex_id label) {
    touched_.insert(label);
    amem::count_write();
  }
  [[nodiscard]] const std::unordered_set<graph::vertex_id>& touched()
      const noexcept {
    return touched_;
  }

  // --- insert-event journal (deletion triage replays this) ---

  void append_event(graph::Edge e) {
    events_.push_back(e);
    amem::count_write();
  }
  [[nodiscard]] const std::vector<graph::Edge>& events() const noexcept {
    return events_;
  }

  // --- patch-inserted edges and their block classes ---

  /// Record one absorbed copy of edge (u, v) carrying the given raw block
  /// class key (0 for self-loops, which belong to no block). Non-self
  /// copies also extend the patch adjacency used by merge path searches.
  void add_patch_edge(graph::vertex_id u, graph::vertex_id v,
                      std::uint64_t block) {
    auto& pe = edges_[edge_key(u, v)];
    if (pe.copies == 0) pe.block = block;
    ++pe.copies;
    if (u != v) {
      adj_[u].push_back(v);
      adj_[v].push_back(u);
    }
    amem::count_write();
  }
  [[nodiscard]] std::uint32_t edge_copies(std::uint64_t key) const {
    if (edges_.empty()) return 0;
    amem::count_read();
    const auto it = edges_.find(key);
    return it == edges_.end() ? 0 : it->second.copies;
  }
  /// Raw (un-united) class key of a patch edge; 0 when absent or blockless.
  [[nodiscard]] std::uint64_t edge_block_raw(std::uint64_t key) const {
    if (edges_.empty()) return 0;
    amem::count_read();
    const auto it = edges_.find(key);
    return it == edges_.end() ? 0 : it->second.block;
  }
  /// Patch adjacency of v (one entry per absorbed non-self copy), or
  /// nullptr when v has none.
  [[nodiscard]] const std::vector<graph::vertex_id>* patch_adjacency(
      graph::vertex_id v) const {
    if (adj_.empty()) return nullptr;
    amem::count_read();
    const auto it = adj_.find(v);
    return it == adj_.end() ? nullptr : &it->second;
  }

  // --- block-class union-find ---

  [[nodiscard]] const PatchUnion& blocks() const noexcept { return blocks_; }
  std::uint64_t unite_blocks(std::uint64_t a, std::uint64_t b) {
    return blocks_.unite(a, b);
  }
  /// Mint a block class for a patched bridge (a fresh K2 block).
  [[nodiscard]] std::uint64_t fresh_patch_block() {
    amem::count_write();
    return patch_block_key(next_patch_block_++);
  }

  // --- bridge demotions (bridges swallowed by a block merge) ---

  void demote_bridge(std::uint64_t key) {
    demoted_.insert(key);
    amem::count_write();
  }
  [[nodiscard]] bool is_demoted_bridge(std::uint64_t key) const {
    if (demoted_.empty()) return false;
    amem::count_read();
    return demoted_.count(key) != 0;
  }

  // --- merged components (articulation/biconnected recompute gate) ---

  void note_merged_component(graph::vertex_id label) {
    merged_comps_.insert(label);
    amem::count_write();
  }
  [[nodiscard]] bool in_merged_component(graph::vertex_id label) const {
    if (merged_comps_.empty()) return false;
    amem::count_read();
    return merged_comps_.count(label) != 0;
  }
  [[nodiscard]] bool has_merges() const noexcept {
    return !merged_comps_.empty();
  }

  // --- deletion masks over frozen edges ---

  /// Mask one more frozen copy of the edge with this key. Only triage-
  /// certified deletions land here (the certificate proves the block stays
  /// 2-connected), which is what keeps every patched answer valid and every
  /// masked vertex enumerable through its surviving block edges.
  void add_mask(std::uint64_t key) {
    ++masks_[key];
    amem::count_write();
  }
  [[nodiscard]] std::uint32_t masked_count(std::uint64_t key) const {
    if (masks_.empty()) return 0;
    amem::count_read();
    const auto it = masks_.find(key);
    return it == masks_.end() ? 0 : it->second;
  }
  [[nodiscard]] bool has_masks() const noexcept { return !masks_.empty(); }
  /// Carry a prior patch's masks into this (fresh) patch before a triage
  /// replay. Masks are permanently valid — each was certified against the
  /// frozen graph minus the masks before it, so the set only ever grows.
  void carry_masks_from(const BiconnPatch& prior) {
    for (const auto& kv : prior.masks_) {
      masks_.insert(kv);
      amem::count_write();
    }
  }
  /// Carry a prior patch's touched-component breadcrumbs (journal replay
  /// regenerates most of them, but components dirtied by prior masks or
  /// since-cancelled events must stay dirty for the next rebuild too).
  void carry_touched_from(const BiconnPatch& prior) {
    for (const graph::vertex_id l : prior.touched_) {
      touched_.insert(l);
      amem::count_write();
    }
  }

  // --- 2ec anchor groups ---

  /// Representative anchor of the frozen 2ec class `cls` (the oracle's
  /// two_edge_class key): the first merge-path vertex that grew the class;
  /// x registers as the anchor when the class is new. O(1) — keying by the
  /// canonical class name is what keeps merge planning and replay linear
  /// in the path length instead of quadratic in anchors per component.
  graph::vertex_id anchor_for(std::uint64_t cls, graph::vertex_id x) {
    amem::count_read();
    const auto it = anchors_.find(cls);
    if (it != anchors_.end()) return it->second;
    anchors_.emplace(cls, x);
    amem::count_write();
    return x;
  }
  /// Query-side lookup: the anchor of the class, if a merge grew it.
  [[nodiscard]] std::optional<graph::vertex_id> find_anchor(
      std::uint64_t cls) const {
    if (anchors_.empty()) return std::nullopt;
    amem::count_read();
    const auto it = anchors_.find(cls);
    if (it == anchors_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] bool has_anchors() const noexcept { return !anchors_.empty(); }
  void tec_unite(graph::vertex_id a, graph::vertex_id b) { tec_.unite(a, b); }
  [[nodiscard]] const PatchUnion& tec() const noexcept { return tec_; }

 private:
  std::unordered_set<std::uint64_t> bridges_;
  std::unordered_set<graph::vertex_id> artics_;
  std::unordered_set<graph::vertex_id> touched_;
  std::vector<graph::Edge> events_;
  std::unordered_map<std::uint64_t, PatchEdge> edges_;
  std::unordered_map<graph::vertex_id, std::vector<graph::vertex_id>> adj_;
  std::unordered_map<std::uint64_t, std::uint32_t> masks_;
  std::unordered_set<std::uint64_t> demoted_;
  std::unordered_set<graph::vertex_id> merged_comps_;
  std::unordered_map<std::uint64_t, graph::vertex_id> anchors_;
  PatchUnion blocks_;
  PatchUnion tec_;
  std::uint64_t next_patch_block_ = 0;
};

/// One biconnectivity oracle version and the frozen graph it reads.
using VersionedBiconnOracle =
    Versioned<biconn::BiconnectivityOracle<OverlayGraph>>;

/// The patched query and enumeration logic over one (frozen oracle, patch)
/// pair. Published snapshots and the fast-path planner share this view, so
/// plan-time absorbability decisions and the answers readers later see are
/// the same computation by construction. Queries cost the static oracle's
/// O(k^2) expected operations plus O(|patch|) worst-case hops; no writes.
///
/// Soundness in one paragraph (docs/patch_algebra.md has the proofs): the
/// patch only ever absorbs operations whose effect it can express exactly —
/// bridge merges (a patched bridge is the *only* edge between its merged
/// components), cycle-closing inserts (the blocks along one u–v path merge
/// into one class; inside such "merged" components articulation and
/// biconnected answers are recomputed from incident block classes, which
/// stay correct because any later merge collapsing a vertex's classes must
/// route through that vertex), and certified deletions (two internally
/// vertex-disjoint replacement paths prove the block stays 2-connected, so
/// no answer changes at all). Frozen true-answers are monotone under all
/// absorbed operations, hence the pervasive "frozen says yes → yes".
class BiconnPatchView {
 public:
  BiconnPatchView(const VersionedBiconnOracle& state, const BiconnPatch& patch)
      : state_(&state), patch_(&patch) {}

  // --- enumeration over the patched graph ---

  /// Frozen neighbors of x with masked copies skipped (per-copy: a mask
  /// count of m on an edge suppresses the first m enumerated copies).
  template <typename Fn>
  void for_frozen_unmasked(graph::vertex_id x, Fn&& fn) const {
    const OverlayGraph& g = *state_->graph;
    if (!patch_->has_masks()) {
      g.for_neighbors(x, fn);
      return;
    }
    std::unordered_map<std::uint64_t, std::uint32_t> used;  // sym scratch
    g.for_neighbors(x, [&](graph::vertex_id w) {
      const std::uint64_t k = edge_key(x, w);
      const std::uint32_t m = patch_->masked_count(k);
      if (m != 0) {
        auto& seen = used[k];
        if (seen < m) {
          ++seen;
          return;
        }
      }
      fn(w);
    });
  }

  /// Neighbors in the patched graph: frozen minus masks, plus patch copies.
  template <typename Fn>
  void for_patched_neighbors(graph::vertex_id x, Fn&& fn) const {
    for_frozen_unmasked(x, fn);
    if (const auto* adj = patch_->patch_adjacency(x)) {
      for (const graph::vertex_id w : *adj) fn(w);
    }
  }

  /// Does x have any non-self neighbor in the patched graph? Masks are
  /// ignored on the frozen side: the triage certificate keeps every masked
  /// block 2-connected, so a vertex with frozen non-self edges always keeps
  /// at least one unmasked one.
  [[nodiscard]] bool has_neighbor(graph::vertex_id x) const {
    if (const auto* adj = patch_->patch_adjacency(x)) {
      if (!adj->empty()) return true;
    }
    return state_->graph->has_non_self_neighbor(x);
  }

  // --- block classes ---

  /// Distinct (find-mapped) block classes over x's incident patched edges.
  /// `cap` bounds the count for early-exit callers (articulation only needs
  /// "two distinct?"); 0 = collect all. A non-articulation vertex has one
  /// frozen block, so one frozen edge probe suffices for the frozen side.
  void incident_classes(graph::vertex_id x, std::vector<std::uint64_t>& out,
                        std::size_t cap = 0) const {
    out.clear();
    const auto& oracle = state_->oracle;
    const bool one_frozen_block = !oracle.is_articulation(x);
    bool frozen_done = false;
    for_frozen_unmasked(x, [&](graph::vertex_id w) {
      if (w == x) return;  // self-loops carry no block
      if (one_frozen_block && frozen_done) return;
      if (cap != 0 && out.size() >= cap) return;
      const auto b = oracle.edge_bcc(x, w);
      if (!b) return;
      push_unique(out, patch_->blocks().find(block_key(*b)));
      frozen_done = true;
    });
    if (const auto* adj = patch_->patch_adjacency(x)) {
      for (const graph::vertex_id w : *adj) {
        if (cap != 0 && out.size() >= cap) return;
        const std::uint64_t raw = patch_->edge_block_raw(edge_key(x, w));
        if (raw != 0) push_unique(out, patch_->blocks().find(raw));
      }
    }
  }

  /// The frozen block shared by frozen-biconnected, frozen-2ec u and v, as
  /// a raw key; 0 when none is found (caller falls back to a path merge).
  /// Unique when it exists: two distinct blocks share at most one vertex.
  [[nodiscard]] std::uint64_t common_frozen_block(graph::vertex_id u,
                                                  graph::vertex_id v) const {
    const auto& oracle = state_->oracle;
    const std::uint64_t k = edge_key(u, v);
    if (state_->graph->multiplicity(u, v) > patch_->masked_count(k)) {
      const auto b = oracle.edge_bcc(u, v);
      return b ? block_key(*b) : 0;
    }
    std::vector<std::uint64_t> bu;
    for_frozen_unmasked(u, [&](graph::vertex_id w) {
      if (w == u) return;
      const auto b = oracle.edge_bcc(u, w);
      if (b) push_unique(bu, block_key(*b));
    });
    std::uint64_t found = 0;
    for_frozen_unmasked(v, [&](graph::vertex_id w) {
      if (found != 0 || w == v) return;
      const auto b = oracle.edge_bcc(v, w);
      if (!b) return;
      const std::uint64_t key = block_key(*b);
      for (const std::uint64_t x : bu) {
        if (x == key) {
          found = key;
          return;
        }
      }
    });
    return found;
  }

  // --- the query surface ---

  [[nodiscard]] graph::vertex_id component_of(graph::vertex_id v) const {
    return patch_->conn.find(state_->oracle.component_of(v));
  }
  [[nodiscard]] bool connected(graph::vertex_id u, graph::vertex_id v) const {
    return component_of(u) == component_of(v);
  }

  /// Do u and v share a biconnected component at this epoch? Frozen yes
  /// stands (monotone); patched adjacency implies yes (K2 convention);
  /// otherwise, inside merged components, u and v are biconnected iff
  /// their incident block class sets intersect.
  [[nodiscard]] bool biconnected(graph::vertex_id u, graph::vertex_id v) const {
    if (u == v) return true;
    if (state_->oracle.biconnected(u, v)) return true;
    if (patch_->is_patched_bridge(u, v)) return true;
    if (patch_->edge_copies(edge_key(u, v)) > 0) return true;
    if (!patch_->has_merges()) return false;
    const graph::vertex_id cu = state_->oracle.component_of(u);
    const graph::vertex_id cv = state_->oracle.component_of(v);
    if (!patch_->in_merged_component(cu) &&
        !patch_->in_merged_component(cv)) {
      return false;
    }
    if (patch_->conn.find(cu) != patch_->conn.find(cv)) return false;
    std::vector<std::uint64_t> a;
    std::vector<std::uint64_t> b;
    incident_classes(u, a);
    incident_classes(v, b);
    for (const std::uint64_t x : a) {
      for (const std::uint64_t y : b) {
        if (x == y) return true;
      }
    }
    return false;
  }

  /// Are u and v 2-edge-connected at this epoch? Frozen yes stands; block
  /// merges can only add 2ec through a merge path, and every merge path
  /// registered an anchor under each frozen 2ec class it grew, so u and v
  /// are newly 2ec iff their classes' anchors share a tec-union group.
  [[nodiscard]] bool two_edge_connected(graph::vertex_id u,
                                        graph::vertex_id v) const {
    if (u == v) return true;
    if (state_->oracle.two_edge_connected(u, v)) return true;
    if (!patch_->has_anchors()) return false;
    const auto au = patch_->find_anchor(state_->oracle.two_edge_class(u));
    if (!au) return false;
    const auto av = patch_->find_anchor(state_->oracle.two_edge_class(v));
    if (!av) return false;
    return patch_->tec().find(*au) == patch_->tec().find(*av);
  }

  /// Is v an articulation point at this epoch? Inside merged components the
  /// patched block classes are the ground truth: v cuts iff its incident
  /// edges span two or more distinct classes (frozen bit and bridge
  /// promotions are both superseded there — merges demote). Elsewhere the
  /// original additive rule stands.
  [[nodiscard]] bool is_articulation(graph::vertex_id v) const {
    if (patch_->has_merges() &&
        patch_->in_merged_component(state_->oracle.component_of(v))) {
      std::vector<std::uint64_t> cls;
      incident_classes(v, cls, /*cap=*/2);
      return cls.size() >= 2;
    }
    return patch_->is_patched_articulation(v) ||
           state_->oracle.is_articulation(v);
  }

  /// Is {u, v} a bridge at this epoch? Absorbed inserts never create
  /// bridges except patched (cross-component) ones, certified deletions
  /// never create bridges at all, and merges demote bridges they swallow.
  [[nodiscard]] bool is_bridge(graph::vertex_id u, graph::vertex_id v) const {
    if (u == v) return false;
    const std::uint64_t k = edge_key(u, v);
    if (patch_->is_demoted_bridge(k)) return false;
    if (patch_->is_patched_bridge(u, v)) return true;
    return state_->oracle.is_bridge(u, v);
  }

  /// Block id of edge (u, v) at this epoch: the find-mapped class of a
  /// patch copy if one exists, else the find-mapped frozen block of a
  /// surviving (unmasked) frozen copy. 0 when the edge is absent at this
  /// epoch or is a self-loop (self-loops belong to no block). Ids are
  /// patch-internal names: stable within an epoch, comparable for equality
  /// across edges of the same snapshot, not across rebuilds.
  [[nodiscard]] std::uint64_t edge_block_id(graph::vertex_id u,
                                            graph::vertex_id v) const {
    if (u == v) return 0;
    const std::uint64_t k = edge_key(u, v);
    if (patch_->edge_copies(k) > 0) {
      const std::uint64_t raw = patch_->edge_block_raw(k);
      return raw == 0 ? 0 : patch_->blocks().find(raw);
    }
    const std::size_t copies = state_->graph->multiplicity(u, v);
    if (copies == 0 || copies <= patch_->masked_count(k)) return 0;
    const auto b = state_->oracle.edge_bcc(u, v);
    return b ? patch_->blocks().find(block_key(*b)) : 0;
  }

 private:
  static void push_unique(std::vector<std::uint64_t>& out,
                          std::uint64_t key) {
    for (const std::uint64_t x : out) {
      if (x == key) return;
    }
    out.push_back(key);
  }

  const VersionedBiconnOracle* state_;
  const BiconnPatch* patch_;
};

/// Immutable point-in-time biconnectivity view; delegates every answer to
/// BiconnPatchView over its frozen state and patch.
class BiconnSnapshot
    : public SnapshotBase<biconn::BiconnectivityOracle<OverlayGraph>,
                          BiconnPatch> {
 public:
  using SnapshotBase::SnapshotBase;

  /// Answers every MixedQuery kind.
  [[nodiscard]] static constexpr bool supports(MixedQuery::Kind) noexcept {
    return true;
  }

  [[nodiscard]] BiconnPatchView view() const {
    return BiconnPatchView(*state_, patch_);
  }

  /// Canonical component label of v at this epoch.
  [[nodiscard]] graph::vertex_id component_of(graph::vertex_id v) const {
    return view().component_of(v);
  }
  [[nodiscard]] bool connected(graph::vertex_id u, graph::vertex_id v) const {
    return view().connected(u, v);
  }
  [[nodiscard]] bool biconnected(graph::vertex_id u,
                                 graph::vertex_id v) const {
    return view().biconnected(u, v);
  }
  [[nodiscard]] bool two_edge_connected(graph::vertex_id u,
                                        graph::vertex_id v) const {
    return view().two_edge_connected(u, v);
  }
  [[nodiscard]] bool is_articulation(graph::vertex_id v) const {
    return view().is_articulation(v);
  }
  [[nodiscard]] bool is_bridge(graph::vertex_id u, graph::vertex_id v) const {
    return view().is_bridge(u, v);
  }
  /// Patch-aware edge_bcc: the block id of edge (u, v) at this epoch, 0
  /// when absent / self-loop. See BiconnPatchView::edge_block_id for the
  /// id's scope.
  [[nodiscard]] std::uint64_t edge_block_id(graph::vertex_id u,
                                            graph::vertex_id v) const {
    return view().edge_block_id(u, v);
  }
};

using BiconnSnapshotStore = SnapshotStoreT<BiconnSnapshot>;

}  // namespace wecc::dynamic
