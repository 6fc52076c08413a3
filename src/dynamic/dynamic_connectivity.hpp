// DynamicConnectivity: batch-dynamic connectivity over the static
// write-efficient oracle, with epoch-versioned snapshots. The writer
// protocol (strong exception guarantee, log before publish, failure hook,
// phase accounting) is FacadeCore's; this header holds the paths' planners.
//
// Update paths, cheapest first (phase counters under "dynamic/..."):
//
//  * Insert fast path — a batch of B insertions merges component labels in
//    a LabelPatch: O(B k) expected operations (two oracle queries per
//    edge), O(B) counted writes. Nothing is rebuilt; the new snapshot
//    shares the previous oracle version.
//  * Selective rebuild — any batch with deletions. The previous center set
//    is re-installed over the mutated graph (ImplicitDecomposition::
//    build_reusing — Algorithm 1's sampling/promotion/splitting passes are
//    all skipped), old labels are copied, and only the centers whose
//    component a changed edge or pending patch entry touches are relabeled
//    by BFS on the new clusters graph: O(n/k + |dirty| k^2) expected
//    operations, O(n/k) counted writes — sublinear in n for k >= 2.
//    Correctness never depends on the reused centers fitting the new
//    topology (rho/cluster/boundary queries recompute from the new graph);
//    only the O(k) query bound degrades if many deletions distort cluster
//    sizes, which the compaction path repairs.
//  * Compaction — when the overlay delta outgrows `compact_threshold`, the
//    overlay is flattened into a fresh CSR base and the oracle is rebuilt
//    from scratch, restoring the static bounds. Amortized over the
//    threshold's worth of updates this keeps per-update cost sublinear.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dynamic/dirty_tracker.hpp"
#include "dynamic/facade_core.hpp"
#include "dynamic/rebuild_planner.hpp"

namespace wecc::dynamic {

struct DynamicOptions {
  connectivity::CcOracleOptions oracle;
  /// Snapshots retained by the store (older pinned ones stay valid).
  std::size_t snapshot_capacity = 4;
  /// Overlay delta (arcs added + deleted) that triggers compaction;
  /// 0 = auto: max(32768, n / k) — large enough that a full rebuild is
  /// amortized over many thousands of updates even on small graphs.
  std::size_t compact_threshold = 0;
  /// Epoch number the initial build publishes as. Recovery sets this to the
  /// loaded snapshot's epoch so replayed WAL records line up; 0 otherwise.
  std::uint64_t first_epoch = 0;
  /// Worker count for the selective rebuild's sharded passes (the
  /// per-cluster boundary prefill feeding the relabel BFS). 0 = auto: the
  /// global pool size — see RebuildPlanner::resolve_threads. Any value
  /// yields identical published labels.
  std::size_t rebuild_threads = 0;
};

class DynamicConnectivity;

/// FacadeCore vocabulary of the connectivity facade.
struct ConnectivityPolicy {
  using Facade = DynamicConnectivity;
  using options_type = DynamicOptions;
  using report_type = UpdateReport;
  using snapshot_type = Snapshot;
  using state_type = VersionedOracle;
  using patch_type = LabelPatch;
  using memo_type = NoMemo;
  static constexpr const char* kPhasePrefix = "dynamic";
};

class DynamicConnectivity final : public FacadeCore<ConnectivityPolicy> {
 public:
  /// Builds the epoch-0 oracle over `base` (vertex set fixed thereafter).
  explicit DynamicConnectivity(graph::Graph base, DynamicOptions opt = {})
      : FacadeCore(std::move(base), opt) {}

 private:
  friend class FacadeCore<ConnectivityPolicy>;

  /// Insert fast path plan, O(B): merge endpoint component labels in a
  /// copy of the pending patch (the oracle keeps reading its frozen
  /// pre-insertion graph; the patch carries exactly the connectivity the
  /// new edges add). Batches with deletions, or that would cross the
  /// compaction threshold, rebuild instead.
  std::optional<FastPlan> plan_fast(const UpdateBatch& batch,
                                    UpdateReport& /*report*/) const {
    if (!batch.deletions.empty() || !fits_fast_path(batch)) {
      return std::nullopt;
    }
    FastPlan plan{patch_, NoMemo{}};
    const auto& oracle = state_->oracle;
    const auto is_center = [&](graph::vertex_id l) {
      return oracle.decomposition().is_center(l);
    };
    for (const graph::Edge& e : batch.insertions) {
      if (e.u == e.v) continue;
      plan.patch.unite(plan.patch.find(oracle.component_of(e.u)),
                       plan.patch.find(oracle.component_of(e.v)), is_center);
    }
    return plan;
  }

  /// Selective rebuild: reuse the center set, relabel only dirty
  /// components. See the header comment for the soundness argument
  /// (mirrored in DirtyTracker). Reads the old state_/patch_ and the staged
  /// overlay; mutates neither member.
  Staged stage_selective_rebuild(OverlayGraph&& staged,
                                 const UpdateBatch& batch,
                                 UpdateReport& report) const {
    const auto& old = state_->oracle;
    const auto& old_decomp = old.decomposition();

    // 1. Dirty analysis against the *old* graph/labels.
    DirtyTracker dirty;
    patch_.for_touched([&](graph::vertex_id l) {
      if (old_decomp.is_center(l)) {
        dirty.mark_label(
            old.cc().label.read(old_decomp.center_index(l)));
      } else {
        dirty.note_virtual();
      }
    });
    const auto note_endpoint = [&](graph::vertex_id x) {
      const decomp::RhoResult r = old_decomp.rho(x);
      if (r.virtual_center) {
        dirty.note_virtual();
        return;
      }
      const std::size_t ci = old_decomp.center_index(r.center);
      dirty.mark_cluster(graph::vertex_id(ci));
      dirty.mark_label(old.cc().label.read(ci));
    };
    batch.for_each_endpoint(note_endpoint);

    // 2. Freeze the staged overlay and re-install the center set over it.
    auto frozen = std::make_shared<const OverlayGraph>(staged);
    auto decomp2 = decomp::ImplicitDecomposition<OverlayGraph>::build_reusing(
        *frozen,
        decomp::DecompOptions{opt_.oracle.k, opt_.oracle.seed,
                              opt_.oracle.parallel_children},
        old_decomp.export_centers());

    // 3. Copy old labels; relabel dirty components from the new clusters
    // graph. BFS is seeded at dirty centers but deliberately unrestricted:
    // under the dirty-set invariant it never leaves dirty labels, and if
    // the invariant were ever violated, following the actual boundary
    // edges still yields a correct labeling of everything reachable.
    const std::size_t nc = decomp2.center_list().size();
    connectivity::CcResult cc2;
    cc2.label.resize(nc);
    for (std::size_t ci = 0; ci < nc; ++ci) {
      cc2.label.write(ci, old.cc().label.read(ci));
    }
    const decomp::ClustersGraph<OverlayGraph> cg(decomp2);

    // Sharded prefill of the enumeration the BFS below consumes: every
    // dirty-labeled cluster's boundary neighbors, gathered in parallel
    // into disjoint per-cluster slots (order within a slot matches the
    // live enumeration, so the replayed BFS visits clusters in exactly
    // the serial order — identical labels for any thread count). The BFS
    // itself stays serial: it only walks the prefilled lists.
    const RebuildPlan plan =
        RebuildPlanner::plan(dirty, nc, opt_.rebuild_threads);
    std::vector<std::vector<graph::vertex_id>> nbr_cache(nc);
    std::vector<std::uint8_t> nbr_cached(nc, 0);
    parallel::parallel_for(
        0, nc,
        [&](std::size_t ci) {
          if (!dirty.label_dirty(old.cc().label.read(ci))) return;
          cg.for_boundary_edges(
              graph::vertex_id(ci),
              [&](graph::vertex_id cj, graph::vertex_id, graph::vertex_id) {
                nbr_cache[ci].push_back(cj);
              });
          nbr_cached[ci] = 1;
        },
        1, plan.threads);
    // Live fallback for clusters the prefill skipped: the unrestricted
    // BFS may step outside the dirty-label set if the dirty invariant
    // were ever violated, and correctness must not depend on it.
    const auto for_nbrs = [&](graph::vertex_id c, auto&& fn) {
      if (nbr_cached[c]) {
        for (const graph::vertex_id cj : nbr_cache[c]) fn(cj);
        return;
      }
      cg.for_neighbors(c, fn);
    };

    std::unordered_set<graph::vertex_id> visited;
    std::vector<graph::vertex_id> frontier, next;
    std::size_t relabeled = 0;
    for (std::size_t ci = 0; ci < nc; ++ci) {
      const auto root = graph::vertex_id(ci);
      if (!dirty.label_dirty(old.cc().label.read(ci))) continue;
      if (!visited.insert(root).second) continue;
      cc2.label.write(ci, root);
      ++relabeled;
      frontier.assign(1, root);
      while (!frontier.empty()) {
        next.clear();
        for (const graph::vertex_id c : frontier) {
          for_nbrs(c, [&](graph::vertex_id cj) {
            if (!visited.insert(cj).second) return;
            cc2.label.write(cj, root);
            ++relabeled;
            next.push_back(cj);
          });
        }
        frontier.swap(next);
      }
    }
    // Exact component count among real clusters (scratch pass; uncounted
    // by the same convention as the from-scratch builder's stats).
    // amem-ok: derived statistic over a finished label array.
    const auto& labels2 = cc2.label.raw();
    std::unordered_set<graph::vertex_id> distinct(labels2.begin(),
                                                  labels2.end());
    cc2.num_components = distinct.size();

    auto state = std::make_shared<VersionedOracle>(
        frozen,
        connectivity::ConnectivityOracle<OverlayGraph>::from_parts(
            std::move(decomp2), std::move(cc2)));
    report.dirty_clusters = dirty.num_clusters();
    report.dirty_labels = dirty.num_labels();
    report.relabeled_centers = relabeled;
    report.rebuild_threads = plan.threads;
    report.rebuild_shards = plan.shards;
    return Staged{base_, std::move(staged), std::move(state), LabelPatch{},
                  NoMemo{}};
  }

  static Staged stage_full_build(const DynamicOptions& opt,
                                 std::shared_ptr<const graph::Graph> base,
                                 UpdateReport& /*report*/) {
    OverlayGraph working(base);
    auto frozen = std::make_shared<const OverlayGraph>(working);
    auto oracle = connectivity::ConnectivityOracle<OverlayGraph>::build(
        *frozen, opt.oracle);
    auto state = std::make_shared<VersionedOracle>(std::move(frozen),
                                                   std::move(oracle));
    return Staged{std::move(base), std::move(working), std::move(state),
                  LabelPatch{}, NoMemo{}};
  }
};

}  // namespace wecc::dynamic
