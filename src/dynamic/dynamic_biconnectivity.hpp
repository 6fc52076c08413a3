// DynamicBiconnectivity: batch-dynamic biconnectivity over the §5.3
// write-efficient oracle, with epoch-versioned snapshots — the paper's full
// query surface (connected? plus biconnected? / 2-edge-connected? /
// articulation? / bridge?) under batched edge churn. The writer protocol
// (strong exception guarantee, log before publish, failure hook, phase
// accounting) is FacadeCore's; this header holds the paths' planners.
//
// Update paths, cheapest first (phase counters under "dynamic_biconn/..."):
//
//  * Insert fast path — a batch of B insertions is *absorbed* when every
//    edge, processed in order against the staged patch, is either
//      (a) intra-block: its endpoints are biconnected AND 2-edge-connected
//          in the frozen oracle — adding an edge inside a 2-connected,
//          2-edge-connected block changes no biconnectivity answer, so the
//          patch records the edge under its (unique) common frozen block
//          plus a touched-component breadcrumb;
//      (b) a component merge: its endpoints lie in different (patched)
//          components — the new edge is then the *only* edge between the
//          two merged components, i.e. a bridge whose endpoints become
//          articulation points exactly when they had any other neighbor.
//          The patch records the connectivity merge, the bridge (a fresh
//          patch-born K2 block), and the promotions; or
//      (c) a cycle-closing block merge: its endpoints are already connected
//          in the patched view but sit in different blocks. Inserting
//          (u, v) merges exactly the blocks along any simple u–v path into
//          one, so a bounded BFS over the patched graph finds such a path
//          and the patch unites the block classes along it (union-find over
//          block ids), demotes every bridge the merge swallowed, and
//          registers 2ec anchors so 2-edge-connectivity answers follow the
//          merge. Cost: O(path length) counted writes — O(#blocks merged).
//    Self-loops are biconnectivity-inert and absorbed unconditionally. A
//    path longer than `merge_search_limit` forces the rebuild
//    (rebuild_reason = cross-block).
//  * Fast mixed path — a batch with deletions is still absorbable when
//    deletion triage succeeds: deletions of patch-inserted copies cancel
//    against the insert-event journal (earliest copy of a key first), and
//    each deletion of a frozen edge must pass a 2-connectivity certificate
//    (two internally vertex-disjoint replacement paths in frozen-minus-
//    masks — parallel copies count — so the block provably stays
//    2-connected and no answer changes; the edge becomes a mask). The
//    planner then *rewinds* a copy of the patch to the first cancelled
//    event — through per-event undo records kept in the planner memo — and
//    re-plans only the surviving events after it, which also re-splits
//    components correctly when a patched bridge was deleted. The events
//    before that point were planned under the current masks and are left
//    as they stand; a batch that adds a mask rewinds to the journal's
//    start. So a batch costs O(B + events after the first cancelled one),
//    not O(journal). A batch whose re-planned events plus own size exceed
//    `replay_event_limit` skips triage (rebuild_reason =
//    deletion-overflow).
//  * Selective rebuild — any batch the above refuse. Only the connected
//    components an edge changed in since the
//    last rebuild (batch endpoints + every patch-touched component,
//    tracked via DirtyTracker) are relabeled: BiconnectivityOracle::
//    build_reusing re-installs the center set (O(n/k) writes, no
//    traversal) and re-runs the clusters forest, BC labeling, fixpoint
//    and bit-finalization passes over dirty clusters only, copying every
//    clean cluster's state from the previous version.
//  * Compaction — when the overlay delta outgrows `compact_threshold`, the
//    overlay is flattened and the oracle is rebuilt from scratch over a
//    fresh normalized decomposition, restoring the static bounds.
//
// Decomposition normalization invariant: every oracle version this facade
// publishes is built over an all-primary reused center set (Algorithm 1
// runs, its centers are exported and re-installed primary). That makes
// rho() — and therefore cluster membership, local views, and all copied
// per-cluster state — a deterministic function of (subgraph, center set)
// alone, which is what lets build_reusing copy clean components' state
// across versions byte-for-byte.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dynamic/biconn_snapshot.hpp"
#include "dynamic/block_merge.hpp"
#include "dynamic/dirty_tracker.hpp"
#include "dynamic/facade_core.hpp"
#include "dynamic/rebuild_planner.hpp"

namespace wecc::dynamic {

struct DynamicBiconnOptions {
  biconn::BiconnOracleOptions oracle;
  /// Snapshots retained by the store (older pinned ones stay valid).
  std::size_t snapshot_capacity = 4;
  /// Overlay delta (arcs added + deleted) that triggers compaction;
  /// 0 = auto: max(32768, n / k).
  std::size_t compact_threshold = 0;
  /// Epoch number the initial build publishes as. Recovery sets this to the
  /// loaded snapshot's epoch so replayed WAL records line up; 0 otherwise.
  std::uint64_t first_epoch = 0;
  /// Worker count for the rebuild paths (selective rebuild, compaction,
  /// initial build). 0 = auto: the global pool size — see
  /// RebuildPlanner::resolve_threads. Any value yields identical published
  /// state (the oracle's construction passes are deterministic under
  /// sharding).
  std::size_t rebuild_threads = 0;
  /// Vertex-visit budget for the fast path's bounded searches (the
  /// cycle-closing merge path BFS and the deletion certificate's
  /// disjoint-path checks). A search that exhausts the budget fails the
  /// absorbability check and the batch rebuilds instead; 0 disables the
  /// block-merge and triage extensions entirely (PR-3 fast path only).
  /// The default must cover a search across the largest patched component
  /// churn can glue together, not just one frozen cluster: sustained
  /// random inserts merge percolation clusters into a giant component
  /// (tens of thousands of vertices), and one refused merge costs a
  /// rebuild that freezes every patch edge — after which LIFO deletions
  /// of those edges fail triage forever. Erring high is strictly cheaper:
  /// the search is bidirectional scratch (visits cost time, not counted
  /// writes) and caps at the component size anyway.
  std::size_t merge_search_limit = 65536;
  /// Most journal events one deletion batch may re-plan: the events after
  /// the first one it cancels (the whole journal when it masks a frozen
  /// edge) plus the batch's own size. Bounds the mixed fast path's worst
  /// case at O(limit × path) operations; a batch over it goes straight to
  /// the rebuild (deletion-overflow). The journal itself may grow past it.
  std::size_t replay_event_limit = 16384;
};

/// What one apply() did — the shared base (epoch, path, counted
/// reads/writes, wall clock) plus the biconnectivity-specific counters.
struct BiconnUpdateReport : UpdateReportBase {
  std::size_t absorbed_edges = 0;     // fast path: intra-block / merges
  std::size_t patched_bridges = 0;    // fast path: component merges
  std::size_t merged_blocks = 0;      // fast path: block-class unions
  std::size_t absorbed_deletions = 0; // fast mixed: cancelled + masked
  std::size_t dirty_components = 0;   // selective rebuild only
  std::size_t dirty_clusters = 0;     // selective rebuild only
  /// Why this batch fell off the fast path (kNone when it did not).
  RebuildReason rebuild_reason = RebuildReason::kNone;
  /// Cumulative fraction of apply() batches absorbed by a fast path since
  /// construction (initial build excluded; 1.0 before the first batch).
  double absorb_rate = 1.0;
};

class DynamicBiconnectivity;

/// The biconnectivity planner's memo: writer-side planning state committed
/// with the patch; snapshots never carry it. One entry per insert-event
/// journal entry, plus the undo log those events wrote.
struct PlannerMemo {
  struct Event {
    /// The cycle path the event's block merge united along (empty for
    /// self-loops, bridges and intra-block edges). A replayed event whose
    /// path is still present re-validates it in O(path) edge-presence
    /// probes instead of re-searching with a BFS.
    std::vector<graph::vertex_id> path;
    /// undo.size() when the event was planned: rewinding the patch to this
    /// mark restores it to just before the event.
    std::size_t undo_mark = 0;
  };
  std::vector<Event> events;
  PatchUndoLog undo;
};

/// FacadeCore vocabulary of the biconnectivity facade.
struct BiconnectivityPolicy {
  using Facade = DynamicBiconnectivity;
  using options_type = DynamicBiconnOptions;
  using report_type = BiconnUpdateReport;
  using snapshot_type = BiconnSnapshot;
  using state_type = VersionedBiconnOracle;
  using patch_type = BiconnPatch;
  using memo_type = PlannerMemo;
  static constexpr const char* kPhasePrefix = "dynamic_biconn";
};

class DynamicBiconnectivity final : public FacadeCore<BiconnectivityPolicy> {
 public:
  /// Builds the epoch-0 oracle over `base` (vertex set fixed thereafter).
  explicit DynamicBiconnectivity(graph::Graph base,
                                 DynamicBiconnOptions opt = {})
      : FacadeCore(std::move(base), opt), memo_version_(state_) {}

  [[nodiscard]] bool biconnected(graph::vertex_id u,
                                 graph::vertex_id v) const {
    return snapshot()->biconnected(u, v);
  }
  [[nodiscard]] bool two_edge_connected(graph::vertex_id u,
                                        graph::vertex_id v) const {
    return snapshot()->two_edge_connected(u, v);
  }
  [[nodiscard]] bool is_articulation(graph::vertex_id v) const {
    return snapshot()->is_articulation(v);
  }
  [[nodiscard]] bool is_bridge(graph::vertex_id u, graph::vertex_id v) const {
    return snapshot()->is_bridge(u, v);
  }

 private:
  friend class FacadeCore<BiconnectivityPolicy>;

  /// Decide whether the batch is absorbable and plan the next patch:
  /// insertion-only batches extend a copy of patch_ edge by edge (O(B k^2)
  /// expected operations plus bounded merge-path searches, O(B + merged
  /// blocks) counted writes); batches with deletions go through deletion
  /// triage and a journal rewind (plan_fast_mixed). On refusal the report
  /// keeps only its epoch and why the plan failed.
  std::optional<FastPlan> plan_fast(const UpdateBatch& batch,
                                    BiconnUpdateReport& report) {
    if (!fits_fast_path(batch)) {
      report.rebuild_reason = RebuildReason::kCompactionDue;
      return std::nullopt;
    }
    std::optional<FastPlan> plan;
    if (batch.deletions.empty()) {
      plan = FastPlan{patch_, memo_};
      if (!plan_insertions(batch.insertions, plan->patch, plan->memo,
                           report)) {
        plan.reset();
      }
    } else {
      plan = plan_fast_mixed(batch, report);
    }
    if (plan) return plan;
    // Discard fast-path planning counts; keep why the plan failed.
    const RebuildReason reason = report.rebuild_reason;
    const std::uint64_t epoch = report.epoch;
    report = BiconnUpdateReport{};
    report.epoch = epoch;
    report.rebuild_reason = reason;
    return std::nullopt;
  }

  /// Plan the batch's insertions in order against the staged patch,
  /// counted; false (report.rebuild_reason set) at the first refusal.
  bool plan_insertions(const graph::EdgeList& insertions, BiconnPatch& staged,
                       PlannerMemo& memo, BiconnUpdateReport& report) {
    for (const graph::Edge& e : insertions) {
      if (!plan_insert_edge(e, staged, memo, report, /*count=*/true)) {
        return false;
      }
    }
    return true;
  }

  /// Plan one insertion against the staged patch — cases (a)/(b)/(c) of the
  /// header comment. `count` is false when replaying journaled events
  /// during deletion triage (the epoch that absorbed them already counted
  /// them); `hint` is the path that event's merge followed last time, if
  /// any. Every absorbed edge appends exactly one journal event and one
  /// memo entry, keeping the two aligned by index, and its patch mutations
  /// to memo.undo. On failure sets report.rebuild_reason and returns false;
  /// the caller discards `staged` and `memo`.
  bool plan_insert_edge(const graph::Edge& e, BiconnPatch& staged,
                        PlannerMemo& memo, BiconnUpdateReport& report,
                        bool count,
                        const std::vector<graph::vertex_id>* hint = nullptr) {
    PlannerMemo::Event event{{}, memo.undo.size()};
    if (!absorb_insert(e, staged, memo.undo, event.path, report, count,
                       hint)) {
      return false;
    }
    staged.append_event(e);
    memo.events.push_back(std::move(event));
    return true;
  }

  /// The case analysis of plan_insert_edge: records the edge in `staged`
  /// (undoably) and, for a block merge, the path it united along in `path`.
  bool absorb_insert(const graph::Edge& e, BiconnPatch& staged,
                     PatchUndoLog& undo, std::vector<graph::vertex_id>& path,
                     BiconnUpdateReport& report, bool count,
                     const std::vector<graph::vertex_id>* hint) {
    const auto& oracle = state_->oracle;
    if (e.u == e.v) {
      // Self-loops are biconnectivity-inert, but still recorded (class 0 —
      // no block) so deletion triage can cancel them against the journal,
      // and still leave the breadcrumb: build_reusing's contract is that a
      // clean component's subgraph is bit-identical to the old frozen one.
      staged.add_patch_edge(e.u, e.v, 0, undo);
      staged.touch_component(oracle.component_of(e.u));
      if (count) ++report.absorbed_edges;
      return true;
    }
    const graph::vertex_id bu = oracle.component_of(e.u);
    const graph::vertex_id bv = oracle.component_of(e.v);
    if (staged.conn.find(bu) != staged.conn.find(bv)) {
      // (b) component merge: the one edge between two merged components —
      // a bridge forming a fresh patch-born K2 block.
      const BiconnPatchView view(*state_, staged);
      if (view.has_neighbor(e.u)) staged.add_articulation(e.u, undo);
      if (view.has_neighbor(e.v)) staged.add_articulation(e.v, undo);
      staged.merge_components(
          bu, bv,
          [&](graph::vertex_id l) {
            return oracle.decomposition().is_center(l);
          },
          undo);
      staged.add_bridge(e.u, e.v, undo);
      staged.add_patch_edge(e.u, e.v, staged.fresh_patch_block(undo), undo);
      staged.touch_component(bu);
      staged.touch_component(bv);
      if (count) ++report.patched_bridges;
      return true;
    }
    if (bu == bv && oracle.biconnected(e.u, e.v) &&
        oracle.two_edge_connected(e.u, e.v)) {
      // (a) intra-block: lands inside one 2-connected, 2-edge-connected
      // frozen block; record the edge under that (unique) block.
      const BiconnPatchView view(*state_, staged);
      const std::uint64_t blk = view.common_frozen_block(e.u, e.v);
      if (blk != 0) {
        staged.add_patch_edge(e.u, e.v, blk, undo);
        staged.touch_component(bu);
        if (count) ++report.absorbed_edges;
        return true;
      }
      // Defensive: no common frozen block surfaced — treat as a merge.
    }
    // (c) cycle-closing block merge.
    return plan_cycle_merge(e, staged, undo, path, report, count, hint);
  }

  /// Case (c): endpoints already connected in the patched view but not in
  /// one block. Find a simple u–v path (bounded bidirectional BFS over
  /// frozen-minus-masks plus patch edges — or a still-valid memoized path
  /// when replaying); inserting (u, v) merges exactly the blocks along it,
  /// so unite their classes, demote swallowed bridges, and register the
  /// path's 2ec anchor groups. The path lands in `path`.
  bool plan_cycle_merge(const graph::Edge& e, BiconnPatch& staged,
                        PatchUndoLog& undo,
                        std::vector<graph::vertex_id>& path,
                        BiconnUpdateReport& report, bool count,
                        const std::vector<graph::vertex_id>* hint) {
    if (opt_.merge_search_limit == 0) {
      report.rebuild_reason = RebuildReason::kCrossBlock;
      return false;
    }
    const auto& oracle = state_->oracle;
    const BiconnPatchView view(*state_, staged);
    // In-merged-block shortcut: if some (possibly patch-merged) block
    // class already contains both endpoints, the new edge lands inside a
    // 2-connected block and absorbs with no structural change — the same
    // argument as case (a), with the union supplying the block. Once churn
    // has united most of a component into one class this is the common
    // case, and it costs O(deg u + deg v) finds instead of a ball walk.
    // The patched-2ec guard matters: a lone bridge block (K2) holds both
    // endpoints of its edge without being 2-edge-connected, and a parallel
    // copy of that bridge must fall through to the path search so the
    // bridge is demoted and the endpoints' 2ec anchors united.
    if (const std::uint64_t shared = common_patched_class(e, staged, view);
        shared != 0 && view.two_edge_connected(e.u, e.v)) {
      staged.add_patch_edge(e.u, e.v, shared, undo);
      staged.touch_component(oracle.component_of(e.u));
      staged.touch_component(oracle.component_of(e.v));
      if (count) ++report.absorbed_edges;
      return true;
    }
    // A memoized path whose edges all survive in the staged view closes
    // the same cycle now as when it was found: a present simple cycle
    // justifies uniting its blocks no matter which journal events were
    // dropped since. Validation is O(path) presence probes; only a stale
    // memo (an edge on it was deleted) pays a fresh search.
    if (hint != nullptr && path_still_present(*hint, e, staged)) {
      path = *hint;
    } else {
      path = bounded_path_search(e.u, e.v, opt_.merge_search_limit,
                                 [&](graph::vertex_id x, auto&& fn) {
                                   view.for_patched_neighbors(x, fn);
                                 });
    }
    if (path.empty()) {
      report.rebuild_reason = RebuildReason::kCrossBlock;
      return false;
    }
    // One class for every block the path crosses (plus the new edge).
    std::uint64_t cls = 0;
    std::size_t unions = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const graph::vertex_id x = path[i];
      const graph::vertex_id y = path[i + 1];
      const std::uint64_t k = edge_key(x, y);
      std::uint64_t c = patched_edge_block(x, y, staged);
      if (c == 0) {
        // A path edge with no block — cannot happen (every non-self
        // patched edge carries one); refuse rather than merge blindly.
        report.rebuild_reason = RebuildReason::kCrossBlock;
        return false;
      }
      c = staged.blocks().find(c);
      if (cls == 0) {
        cls = c;
      } else if (cls != c) {
        cls = staged.unite_blocks(cls, c, undo);
        ++unions;
      }
      // Bridges swallowed by the merge stop being bridges.
      if (!staged.is_demoted_bridge(k) &&
          (staged.is_patched_bridge(x, y) || frozen_bridge(x, y))) {
        staged.demote_bridge(k, undo);
      }
    }
    staged.add_patch_edge(e.u, e.v, cls, undo);
    // The new cycle makes every path vertex 2-edge-connected with every
    // other: unite their 2ec anchor groups (one keyed probe per vertex via
    // the memoized canonical class), and flip their components to
    // class-recomputed articulation/biconnected answers.
    graph::vertex_id prev = graph::kNoVertex;
    for (const graph::vertex_id x : path) {
      staged.note_merged_component(oracle.component_of(x), undo);
      const graph::vertex_id a =
          staged.anchor_for(frozen_tec_class(x), x, undo);
      if (prev != graph::kNoVertex && prev != a) {
        staged.tec_unite(prev, a, undo);
      }
      prev = a;
    }
    staged.touch_component(oracle.component_of(e.u));
    staged.touch_component(oracle.component_of(e.v));
    if (count) {
      ++report.absorbed_edges;
      report.merged_blocks += unions;
    }
    return true;
  }

  /// Planner-side memo of the frozen oracle's per-edge block key (0 =
  /// none). Pure function of state_->oracle, so entries live as long as the
  /// oracle version: after_publish clears them only when a commit installs
  /// a new state_. Re-planned events re-resolve the same frozen edges
  /// batch after batch, which this turns into hash probes.
  /// Writer-serialized like the planner.
  [[nodiscard]] std::uint64_t frozen_edge_block(graph::vertex_id x,
                                               graph::vertex_id y) {
    const std::uint64_t k = edge_key(x, y);
    const auto it = edge_block_memo_.find(k);
    if (it != edge_block_memo_.end()) return it->second;
    const auto b = state_->oracle.edge_bcc(x, y);
    const std::uint64_t c = b ? block_key(*b) : 0;
    edge_block_memo_.emplace(k, c);
    return c;
  }

  /// Same discipline for the oracle's canonical 2ec class of a vertex —
  /// the anchor loop's key. One oracle computation per distinct vertex per
  /// oracle version instead of per re-planned event.
  [[nodiscard]] std::uint64_t frozen_tec_class(graph::vertex_id x) {
    const auto it = tec_class_memo_.find(x);
    if (it != tec_class_memo_.end()) return it->second;
    const std::uint64_t c = state_->oracle.two_edge_class(x);
    tec_class_memo_.emplace(x, c);
    return c;
  }

  /// Is the frozen edge (x, y) a bridge? A present edge is one exactly when
  /// its endpoints are not 2-edge-connected, so the memoized 2ec classes
  /// answer without the cluster local view oracle.is_bridge materializes
  /// (parallel copies make both sides say no; an absent edge is no bridge).
  [[nodiscard]] bool frozen_bridge(graph::vertex_id x, graph::vertex_id y) {
    return state_->graph->multiplicity(x, y) > 0 &&
           frozen_tec_class(x) != frozen_tec_class(y);
  }

  /// Raw block key of edge (x, y) in the staged patched view: the class a
  /// patch copy recorded, else the frozen edge's block (0 = none).
  [[nodiscard]] std::uint64_t patched_edge_block(graph::vertex_id x,
                                                 graph::vertex_id y,
                                                 const BiconnPatch& staged) {
    const std::uint64_t k = edge_key(x, y);
    const std::uint64_t c =
        staged.edge_copies(k) > 0 ? staged.edge_block_raw(k) : 0;
    return c != 0 ? c : frozen_edge_block(x, y);
  }

  /// The block class (root key) containing both endpoints of e, or 0 when
  /// none does. A vertex's blocks are the classes of its incident edges in
  /// the patched view, so the test is a class-list intersection —
  /// deterministic because both lists follow the view's enumeration order.
  [[nodiscard]] std::uint64_t common_patched_class(
      const graph::Edge& e, const BiconnPatch& staged,
      const BiconnPatchView& view) {
    const auto classes_of = [&](graph::vertex_id x,
                                std::vector<std::uint64_t>& out) {
      view.for_patched_neighbors(x, [&](graph::vertex_id w) {
        if (w == x) return;
        const std::uint64_t c = patched_edge_block(x, w, staged);
        if (c != 0) out.push_back(staged.blocks().find(c));
      });
    };
    std::vector<std::uint64_t> cu;
    std::vector<std::uint64_t> cv;
    classes_of(e.u, cu);
    if (cu.empty()) return 0;
    classes_of(e.v, cv);
    for (const std::uint64_t c : cv) {
      if (std::find(cu.begin(), cu.end(), c) != cu.end()) return c;
    }
    return 0;
  }

  /// A memoized merge path is reusable iff it still runs endpoint to
  /// endpoint over edges present in the staged patched view: frozen copies
  /// not fully masked, plus copies the staged patch has (re)inserted.
  [[nodiscard]] bool path_still_present(
      const std::vector<graph::vertex_id>& path, const graph::Edge& e,
      const BiconnPatch& staged) const {
    if (path.size() < 2 || path.front() != e.u || path.back() != e.v) {
      return false;
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const std::uint64_t k = edge_key(path[i], path[i + 1]);
      if (staged.edge_copies(k) == 0 &&
          state_->graph->multiplicity(path[i], path[i + 1]) <=
              std::size_t{staged.masked_count(k)}) {
        return false;
      }
    }
    return true;
  }

  /// Deletion triage + journal rewind: stage the next patch expressing
  /// (old patch + batch). Deletions of patch-inserted copies cancel against
  /// the journal, earliest copy of a key first; each frozen-edge deletion
  /// must pass the 2-connectivity certificate and becomes a mask. A copy of
  /// the patch rewinds to the first event the batch cancels — or to the
  /// journal's start when it adds a mask — the surviving events after that
  /// point re-plan through plan_insert_edge (uncounted), and then the
  /// batch's insertions plan normally. nullopt with report.rebuild_reason
  /// set on any refusal.
  ///
  /// Why the events before the rewind point stand as they are: each was
  /// last planned under the current mask set (masks only grow, and a batch
  /// that adds one re-plans the whole journal) and the same earlier events,
  /// so re-planning them — a deterministic function of those inputs and
  /// the memoized paths — would reproduce exactly the state they left.
  std::optional<FastPlan> plan_fast_mixed(const UpdateBatch& batch,
                                          BiconnUpdateReport& report) {
    const auto& oracle = state_->oracle;
    // 1. Classify deletions: per edge key, up to the journal's copy count
    // cancels in the patch; the overflow must delete frozen copies.
    std::unordered_map<std::uint64_t, std::uint32_t> drop;
    graph::EdgeList frozen_dels;
    for (const graph::Edge& e : batch.deletions) {
      const std::uint64_t k = edge_key(e.u, e.v);
      auto& d = drop[k];
      if (d < patch_.edge_copies(k)) {
        ++d;
      } else {
        frozen_dels.push_back(e);
      }
    }
    // 2. The rewind point, and the admission bound on the work after it.
    const auto& events = patch_.events();
    const std::size_t start =
        frozen_dels.empty() ? first_cancelled_event(drop) : 0;
    if (events.size() - start + batch.size() > opt_.replay_event_limit) {
      report.rebuild_reason = RebuildReason::kDeletionOverflow;
      return std::nullopt;
    }
    FastPlan plan{patch_, memo_};
    BiconnPatch& staged = plan.patch;
    PlannerMemo& memo = plan.memo;
    staged.rewind(memo.undo,
                  start < events.size() ? memo_.events[start].undo_mark
                                        : memo_.undo.size(),
                  start);
    memo.events.resize(start);
    // 3. Certify each new frozen deletion sequentially (each certificate
    // runs against frozen minus the masks before it).
    for (const graph::Edge& e : frozen_dels) {
      if (e.u != e.v && !certify_frozen_deletion(e, staged)) {
        report.rebuild_reason = RebuildReason::kTriageFailed;
        return std::nullopt;
      }
      staged.add_mask(edge_key(e.u, e.v));
      staged.touch_component(oracle.component_of(e.u));
      staged.touch_component(oracle.component_of(e.v));
      ++report.absorbed_deletions;
    }
    // 4. Re-plan the surviving events after the rewind point. Cancelled
    // insert+delete pairs leave the component subgraph bit-identical, but
    // both edges churned it — keep the breadcrumbs. Each surviving event
    // hands the planner the path its merge followed last time, so an
    // unaffected cycle merge re-validates in O(path) instead of
    // re-searching.
    for (std::size_t i = start; i < events.size(); ++i) {
      const graph::Edge& ev = events[i];
      const auto it = drop.find(edge_key(ev.u, ev.v));
      if (it != drop.end() && it->second > 0) {
        --it->second;
        staged.touch_component(oracle.component_of(ev.u));
        staged.touch_component(oracle.component_of(ev.v));
        ++report.absorbed_deletions;
        continue;
      }
      const auto& path = memo_.events[i].path;
      const std::vector<graph::vertex_id>* hint =
          path.empty() ? nullptr : &path;
      if (!plan_insert_edge(ev, staged, memo, report, /*count=*/false,
                            hint)) {
        report.rebuild_reason = RebuildReason::kTriageFailed;
        return std::nullopt;
      }
    }
    // 5. The batch's own insertions.
    if (!plan_insertions(batch.insertions, staged, memo, report)) {
      return std::nullopt;
    }
    return plan;
  }

  /// Index of the first journal event the replay cancels: the earliest
  /// copy of any key in `drop` (every copy of a key is one journal event).
  /// Scans back from the newest event, so it costs O(events after it).
  [[nodiscard]] std::size_t first_cancelled_event(
      const std::unordered_map<std::uint64_t, std::uint32_t>& drop) const {
    std::unordered_map<std::uint64_t, std::uint32_t> unseen;  // copies left
    for (const auto& [k, d] : drop) {
      if (d > 0) unseen.emplace(k, patch_.edge_copies(k));
    }
    const auto& events = patch_.events();
    std::size_t i = events.size();
    while (!unseen.empty() && i > 0) {
      --i;
      const auto it = unseen.find(edge_key(events[i].u, events[i].v));
      if (it != unseen.end() && --it->second == 0) unseen.erase(it);
    }
    return i;
  }

  /// The deletion certificate: after masking one more copy of (u, v), do
  /// two internally vertex-disjoint u–v replacement paths survive in the
  /// frozen graph minus masks? (Parallel copies count as paths; patch edges
  /// deliberately do not — that is what makes masks permanently valid under
  /// journal replay.) Greedy two-path check: sound, conservatively
  /// incomplete — a miss only costs a rebuild, never a wrong answer.
  [[nodiscard]] bool certify_frozen_deletion(const graph::Edge& e,
                                             const BiconnPatch& staged) const {
    if (opt_.merge_search_limit == 0) return false;
    const std::uint64_t k = edge_key(e.u, e.v);
    const BiconnPatchView view(*state_, staged);
    const std::size_t frozen_copies = state_->graph->multiplicity(e.u, e.v);
    const std::size_t gone = std::size_t{staged.masked_count(k)} + 1;
    if (frozen_copies < gone) return false;  // nothing frozen left to mask
    const std::size_t remaining = frozen_copies - gone;
    if (remaining >= 2) return true;  // two surviving parallel copies
    const auto nbrs = [&](graph::vertex_id x, auto&& fn) {
      view.for_frozen_unmasked(x, [&](graph::vertex_id w) {
        if (edge_key(x, w) == k) return;  // avoid every (u, v) copy
        fn(w);
      });
    };
    const auto p1 =
        bounded_path_search(e.u, e.v, opt_.merge_search_limit, nbrs);
    if (p1.empty()) return false;
    if (remaining == 1) return true;  // surviving copy + p1 are disjoint
    const std::unordered_set<graph::vertex_id> interior(p1.begin() + 1,
                                                        p1.end() - 1);
    const auto p2 = bounded_path_search(
        e.u, e.v, opt_.merge_search_limit, nbrs,
        [&](graph::vertex_id w) { return interior.count(w) != 0; });
    return !p2.empty();
  }

  /// Selective rebuild: relabel only the components the batch or the
  /// pending patch touched; BiconnectivityOracle::build_reusing copies
  /// every clean cluster's state. Reads the old state_/patch_ and the
  /// staged overlay; mutates neither member.
  Staged stage_selective_rebuild(OverlayGraph&& staged,
                                 const UpdateBatch& batch,
                                 BiconnUpdateReport& report) const {
    const auto& old = state_->oracle;

    DirtyTracker dirty;
    for (const graph::vertex_id l : patch_.touched()) {
      dirty.mark_component(l);
    }
    // Belt and braces: the conn patch's labels are a subset of touched(),
    // but folding them in keeps the dirty set sound even if the two ever
    // drift.
    patch_.conn.for_touched(
        [&](graph::vertex_id l) { dirty.mark_component(l); });
    const auto note = [&](graph::vertex_id x) {
      dirty.mark_component(old.component_of(x));
      // Cluster-granular breadcrumb: the cluster x lands in under the OLD
      // decomposition. Diagnostics / sharding input only — the soundness
      // boundary stays the component (see DirtyTracker::mark_cluster).
      const decomp::RhoResult rx = old.decomposition().rho(x);
      if (rx.virtual_center) {
        dirty.note_virtual();
      } else {
        dirty.mark_cluster(
            graph::vertex_id(old.decomposition().center_index(rx.center)));
      }
    };
    batch.for_each_endpoint(note);

    const RebuildPlan plan = RebuildPlanner::plan(
        dirty, old.decomposition().center_list().size(),
        opt_.rebuild_threads);
    biconn::BiconnOracleOptions ropt = opt_.oracle;
    ropt.threads = plan.threads;

    auto frozen = std::make_shared<const OverlayGraph>(staged);
    biconn::BiconnRebuildStats stats;
    auto oracle2 = biconn::BiconnectivityOracle<OverlayGraph>::build_reusing(
        *frozen, ropt, old, dirty.components(), &stats);
    auto state = std::make_shared<VersionedBiconnOracle>(
        frozen, std::move(oracle2));
    report.dirty_components = dirty.num_components();
    report.dirty_clusters = stats.dirty_clusters;
    report.rebuild_threads = stats.threads;
    report.rebuild_shards = stats.shards;
    return Staged{base_, std::move(staged), std::move(state), BiconnPatch{},
                  PlannerMemo{}};
  }

  /// Full build with the all-primary normalization invariant: run
  /// Algorithm 1, export its centers, re-install them primary, then build
  /// the oracle over the reused decomposition — so later selective
  /// rebuilds reproduce clean components' rho() exactly.
  static Staged stage_full_build(const DynamicBiconnOptions& opt,
                                 std::shared_ptr<const graph::Graph> base,
                                 BiconnUpdateReport& report) {
    OverlayGraph working(base);
    auto frozen = std::make_shared<const OverlayGraph>(working);
    decomp::DecompOptions dopt;
    dopt.k = opt.oracle.k;
    dopt.seed = opt.oracle.seed;
    auto seeded = decomp::ImplicitDecomposition<OverlayGraph>::build(
        *frozen, dopt);
    auto normalized =
        decomp::ImplicitDecomposition<OverlayGraph>::build_reusing(
            *frozen, dopt, seeded.export_centers());
    biconn::BiconnOracleOptions bopt = opt.oracle;
    bopt.threads = RebuildPlanner::resolve_threads(opt.rebuild_threads);
    const std::size_t nc = normalized.center_list().size();
    auto oracle = biconn::BiconnectivityOracle<OverlayGraph>::
        from_decomposition(std::move(normalized), bopt);
    report.rebuild_threads = bopt.threads;
    report.rebuild_shards = parallel::block_count(nc, 1, bopt.threads);
    auto state = std::make_shared<VersionedBiconnOracle>(std::move(frozen),
                                                         std::move(oracle));
    return Staged{std::move(base), std::move(working), std::move(state),
                  BiconnPatch{}, PlannerMemo{}};
  }

  /// Commit-time accounting (writer lock, noexcept). The frozen-oracle
  /// planner memos live exactly as long as the oracle version they
  /// describe: a commit that installed a new state_ (a rebuild or a
  /// compaction) drops them, and both fast paths keep them. Absorb-rate
  /// counters count apply() batches only.
  void after_publish(BiconnUpdateReport& report, bool batch) noexcept {
    if (memo_version_ != state_) {
      edge_block_memo_.clear();
      tec_class_memo_.clear();
      memo_version_ = state_;
    }
    if (batch) {
      ++applied_batches_;
      if (report.path == Path::kFastInsert ||
          report.path == Path::kFastMixed) {
        ++absorbed_batches_;
      }
    } else {
      report.rebuild_reason = RebuildReason::kForced;
    }
    report.absorb_rate =
        applied_batches_ == 0
            ? 1.0
            : double(absorbed_batches_) / double(applied_batches_);
  }

  /// Frozen-oracle planner memos (see frozen_edge_block / frozen_tec_class)
  /// and the oracle version they describe.
  std::unordered_map<std::uint64_t, std::uint64_t> edge_block_memo_;
  std::unordered_map<graph::vertex_id, std::uint64_t> tec_class_memo_;
  std::shared_ptr<const VersionedBiconnOracle> memo_version_;
  std::uint64_t applied_batches_ = 0;
  std::uint64_t absorbed_batches_ = 0;
};

}  // namespace wecc::dynamic
