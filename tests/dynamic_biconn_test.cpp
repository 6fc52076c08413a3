// Unit + property tests for the batch-dynamic biconnectivity subsystem:
// fast-path absorption (intra-block inserts, patched bridge merges,
// articulation promotion), selective rebuilds with clean-component reuse,
// compaction, snapshot isolation, mixed batch queries — every epoch's full
// query surface is cross-checked against a from-scratch Hopcroft–Tarjan
// recompute of the materialized edge set, plus failure-injection tests for
// the strong exception guarantee on every update path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "biconn/biconn_oracle.hpp"
#include "dynamic/batch_query.hpp"
#include "dynamic/dynamic_biconnectivity.hpp"
#include "dynamic/dynamic_connectivity.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"
#include "test_util.hpp"

namespace {

using namespace wecc;
using dynamic::BiconnUpdateReport;
using dynamic::DynamicBiconnectivity;
using dynamic::DynamicBiconnOptions;
using dynamic::MixedQuery;
using dynamic::UpdateBatch;
using graph::Edge;
using graph::EdgeList;
using graph::Graph;
using graph::vertex_id;
using testutil::EdgeSetModel;

using Path = BiconnUpdateReport::Path;

DynamicBiconnOptions opts(std::size_t k, std::size_t compact_threshold = 0) {
  DynamicBiconnOptions o;
  o.oracle.k = k;
  o.compact_threshold = compact_threshold;
  return o;
}

void apply_to_model(EdgeSetModel& model, const UpdateBatch& b) {
  for (const Edge& e : b.deletions) model.remove(e);
  for (const Edge& e : b.insertions) model.add(e);
}

/// Ground truth for one materialized graph: Hopcroft–Tarjan over the full
/// edge multiset, plus pair-level derived answers.
struct Truth {
  primitives::LocalGraph lg{0};
  primitives::BiconnResult bc;
  /// Edge ids of every instance of a non-self pair, keyed by edge_key.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> pair_edges;

  explicit Truth(const Graph& g) : lg(g.num_vertices()) {
    for (const Edge& e : g.edge_list()) {
      const auto id = lg.add_edge(e.u, e.v);
      if (e.u != e.v) pair_edges[dynamic::edge_key(e.u, e.v)].push_back(id);
    }
    bc = primitives::biconnectivity(lg);
  }

  [[nodiscard]] bool connected(vertex_id u, vertex_id v) const {
    return bc.cc_label[u] == bc.cc_label[v];
  }
  [[nodiscard]] bool biconnected(vertex_id u, vertex_id v) const {
    return u == v || bc.same_bcc(lg, u, v);
  }
  [[nodiscard]] bool two_edge_connected(vertex_id u, vertex_id v) const {
    return u == v || (connected(u, v) && bc.two_edge_connected(u, v));
  }
  [[nodiscard]] bool is_articulation(vertex_id v) const {
    return bc.is_artic[v] != 0;
  }
  /// Pair-level bridge: some instance of (u, v) is a bridge (parallel
  /// copies make every instance a non-bridge, matching the oracle's
  /// doubled-edge rule).
  [[nodiscard]] bool is_bridge(vertex_id u, vertex_id v) const {
    if (u == v) return false;
    const auto it = pair_edges.find(dynamic::edge_key(u, v));
    if (it == pair_edges.end()) return false;
    for (const auto e : it->second) {
      if (bc.is_bridge[e]) return true;
    }
    return false;
  }
};

void expect_matches_truth(const DynamicBiconnectivity& dbc,
                          const EdgeSetModel& model) {
  const Graph g = model.materialize();
  const Truth truth(g);
  const auto snap = dbc.snapshot();
  const auto n = vertex_id(g.num_vertices());
  for (vertex_id v = 0; v < n; ++v) {
    ASSERT_EQ(snap->is_articulation(v), truth.is_articulation(v))
        << "epoch " << snap->epoch() << " artic " << v;
  }
  for (vertex_id u = 0; u < n; ++u) {
    for (vertex_id v = u; v < n; ++v) {
      ASSERT_EQ(snap->connected(u, v), truth.connected(u, v))
          << "epoch " << snap->epoch() << " connected " << u << "," << v;
      ASSERT_EQ(snap->biconnected(u, v), truth.biconnected(u, v))
          << "epoch " << snap->epoch() << " biconnected " << u << "," << v;
      ASSERT_EQ(snap->two_edge_connected(u, v),
                truth.two_edge_connected(u, v))
          << "epoch " << snap->epoch() << " 2ec " << u << "," << v;
      ASSERT_EQ(snap->is_bridge(u, v), truth.is_bridge(u, v))
          << "epoch " << snap->epoch() << " bridge " << u << "," << v;
    }
  }
}

/// Cross-check the snapshot's edge block ids against the Hopcroft–Tarjan
/// edge_bcc partition: every present non-self-loop pair answers a nonzero
/// id (patch-inserted edges included), and two pairs share a snapshot id
/// iff ground truth puts them in the same biconnected component. Ids are
/// epoch-internal names, so the comparison is a bijection check, not an
/// equality check.
void expect_block_partition_matches(const DynamicBiconnectivity& dbc,
                                    const EdgeSetModel& model) {
  const Graph g = model.materialize();
  const Truth truth(g);
  const auto snap = dbc.snapshot();
  std::map<std::uint64_t, std::uint32_t> snap_to_truth;
  std::map<std::uint32_t, std::uint64_t> truth_to_snap;
  for (const auto& [pair, count] : model.edges()) {
    const auto [u, v] = pair;
    const std::uint64_t id = snap->edge_block_id(u, v);
    if (u == v) {
      EXPECT_EQ(id, 0u) << "epoch " << snap->epoch() << " self-loop " << u;
      continue;
    }
    ASSERT_NE(id, 0u)
        << "epoch " << snap->epoch() << " edge " << u << "," << v;
    const std::uint32_t tid =
        truth.bc.edge_bcc[truth.pair_edges.at(dynamic::edge_key(u, v)).front()];
    const auto [fwd, fwd_fresh] = snap_to_truth.emplace(id, tid);
    EXPECT_EQ(fwd->second, tid)
        << "epoch " << snap->epoch() << " edge " << u << "," << v
        << ": snapshot block " << id << " straddles truth blocks";
    const auto [rev, rev_fresh] = truth_to_snap.emplace(tid, id);
    EXPECT_EQ(rev->second, id)
        << "epoch " << snap->epoch() << " edge " << u << "," << v
        << ": truth block " << tid << " split across snapshot blocks";
  }
}

/// The whole query surface of the current snapshot against Hopcroft–Tarjan
/// in O(n + m) queries, for graphs too large for expect_matches_truth's
/// all-pairs sweep: every vertex's articulation bit and component (as a
/// partition of the vertices), bridge / biconnected / 2ec for every present
/// pair, biconnected / 2ec between consecutive members of each component
/// (mostly non-adjacent pairs), and the edge_block_id partition.
void expect_surface_matches(const DynamicBiconnectivity& dbc,
                            const EdgeSetModel& model) {
  const Graph g = model.materialize();
  const Truth truth(g);
  const auto snap = dbc.snapshot();
  const auto n = vertex_id(g.num_vertices());
  std::unordered_map<std::uint32_t, vertex_id> label_of;  // truth -> snap
  std::unordered_map<vertex_id, std::uint32_t> truth_of;  // snap -> truth
  std::unordered_map<std::uint32_t, vertex_id> last_member;
  for (vertex_id v = 0; v < n; ++v) {
    ASSERT_EQ(snap->is_articulation(v), truth.is_articulation(v))
        << "epoch " << snap->epoch() << " artic " << v;
    const std::uint32_t t = truth.bc.cc_label[v];
    const vertex_id c = snap->component_of(v);
    ASSERT_EQ(label_of.emplace(t, c).first->second, c)
        << "epoch " << snap->epoch() << " component of " << v << " split";
    ASSERT_EQ(truth_of.emplace(c, t).first->second, t)
        << "epoch " << snap->epoch() << " component of " << v << " merged";
    const auto [prev, first] = last_member.emplace(t, v);
    if (first) continue;
    const vertex_id u = prev->second;
    prev->second = v;
    ASSERT_EQ(snap->biconnected(u, v), truth.biconnected(u, v))
        << "epoch " << snap->epoch() << " biconnected " << u << "," << v;
    ASSERT_EQ(snap->two_edge_connected(u, v), truth.two_edge_connected(u, v))
        << "epoch " << snap->epoch() << " 2ec " << u << "," << v;
  }
  for (const auto& [pair, count] : model.edges()) {
    const auto [u, v] = pair;
    if (u == v) continue;
    ASSERT_EQ(snap->is_bridge(u, v), truth.is_bridge(u, v))
        << "epoch " << snap->epoch() << " bridge " << u << "," << v;
    ASSERT_EQ(snap->biconnected(u, v), truth.biconnected(u, v))
        << "epoch " << snap->epoch() << " biconnected " << u << "," << v;
    ASSERT_EQ(snap->two_edge_connected(u, v), truth.two_edge_connected(u, v))
        << "epoch " << snap->epoch() << " 2ec " << u << "," << v;
  }
  expect_block_partition_matches(dbc, model);
}

TEST(DynamicBiconn, FastPathAbsorbsIntraBlockInserts) {
  // A chord inside a cycle lands inside the (single) block: absorbed with
  // zero structural change.
  const Graph g = graph::gen::cycle(8);
  EdgeSetModel model(8, g.edge_list());
  DynamicBiconnectivity dbc(g, opts(3));

  UpdateBatch b = UpdateBatch::inserting({{0, 4}, {2, 6}});
  const BiconnUpdateReport r = dbc.apply(b);
  apply_to_model(model, b);
  EXPECT_EQ(r.path, Path::kFastInsert);
  EXPECT_EQ(r.absorbed_edges, 2u);
  EXPECT_EQ(r.patched_bridges, 0u);
  expect_matches_truth(dbc, model);

  // Self-loops are inert and always absorbable.
  UpdateBatch loops = UpdateBatch::inserting({{3, 3}});
  EXPECT_EQ(dbc.apply(loops).path, Path::kFastInsert);
  apply_to_model(model, loops);
  expect_matches_truth(dbc, model);
}

TEST(DynamicBiconn, FastPathPatchesBridgeMerges) {
  // Two triangles and an isolated vertex; fast-path merges patch bridges
  // and promote exactly the endpoints that had other neighbors.
  const Graph g =
      Graph::from_edges(7, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  EdgeSetModel model(7, g.edge_list());
  DynamicBiconnectivity dbc(g, opts(2));

  UpdateBatch b1 = UpdateBatch::inserting({{2, 3}});
  const BiconnUpdateReport r1 = dbc.apply(b1);
  apply_to_model(model, b1);
  EXPECT_EQ(r1.path, Path::kFastInsert);
  EXPECT_EQ(r1.patched_bridges, 1u);
  expect_matches_truth(dbc, model);
  EXPECT_TRUE(dbc.is_bridge(2, 3));
  EXPECT_TRUE(dbc.is_articulation(2));
  EXPECT_TRUE(dbc.is_articulation(3));
  EXPECT_TRUE(dbc.biconnected(2, 3));  // they share the bridge block
  EXPECT_FALSE(dbc.two_edge_connected(2, 3));

  // Merging in the isolated vertex: 6 has no other neighbor, so it is not
  // an articulation point; 0 is.
  UpdateBatch b2 = UpdateBatch::inserting({{0, 6}});
  const BiconnUpdateReport r2 = dbc.apply(b2);
  apply_to_model(model, b2);
  EXPECT_EQ(r2.path, Path::kFastInsert);
  expect_matches_truth(dbc, model);
  EXPECT_FALSE(dbc.is_articulation(6));
  EXPECT_TRUE(dbc.is_articulation(0));

  // A second bridge out of 6 (within the same batch-adjacency bookkeeping
  // rules, but across epochs here) must now promote 6.
  const Graph g2 = Graph::from_edges(3, {{1, 2}});
  EdgeSetModel model2(3, g2.edge_list());
  DynamicBiconnectivity dbc2(g2, opts(2));
  UpdateBatch chain = UpdateBatch::inserting({{0, 1}});
  EXPECT_EQ(dbc2.apply(chain).path, Path::kFastInsert);
  apply_to_model(model2, chain);
  expect_matches_truth(dbc2, model2);
  EXPECT_TRUE(dbc2.is_articulation(1));
}

TEST(DynamicBiconn, ChainedMergesWithinOneBatch) {
  // Three singletons chained in one batch: the middle one becomes an
  // articulation point via the batch-adjacency rule.
  const Graph g = Graph::from_edges(3, {});
  EdgeSetModel model(3, {});
  DynamicBiconnectivity dbc(g, opts(2));

  UpdateBatch b = UpdateBatch::inserting({{0, 1}, {1, 2}});
  const BiconnUpdateReport r = dbc.apply(b);
  apply_to_model(model, b);
  EXPECT_EQ(r.path, Path::kFastInsert);
  EXPECT_EQ(r.patched_bridges, 2u);
  expect_matches_truth(dbc, model);
  EXPECT_TRUE(dbc.is_articulation(1));
  EXPECT_FALSE(dbc.is_articulation(0));
  EXPECT_FALSE(dbc.is_articulation(2));
}

TEST(DynamicBiconn, CycleClosingInsertAbsorbedByBlockMerge) {
  // An intra-component edge spanning several blocks (path endpoints)
  // closes a cycle: the planner unites the blocks along the path and the
  // batch stays on the O(B)-write fast path — where it used to pay a
  // selective rebuild — with the new cycle answered exactly.
  const Graph g = graph::gen::path(6);
  EdgeSetModel model(6, g.edge_list());
  DynamicBiconnectivity dbc(g, opts(3));

  UpdateBatch b = UpdateBatch::inserting({{0, 3}});
  const BiconnUpdateReport r = dbc.apply(b);
  apply_to_model(model, b);
  EXPECT_EQ(r.path, Path::kFastInsert);
  EXPECT_EQ(r.rebuild_reason, dynamic::RebuildReason::kNone);
  EXPECT_GE(r.merged_blocks, 2u);  // three path blocks fold into one
  expect_matches_truth(dbc, model);
  EXPECT_TRUE(dbc.biconnected(0, 3));
  EXPECT_TRUE(dbc.two_edge_connected(1, 2));
  EXPECT_FALSE(dbc.biconnected(3, 5));
  EXPECT_TRUE(dbc.is_bridge(4, 5));

  // A parallel copy of a bridge closes a 2-cycle: also a block merge
  // (demoting the bridge), not a rebuild.
  UpdateBatch dup = UpdateBatch::inserting({{4, 5}});
  const BiconnUpdateReport r2 = dbc.apply(dup);
  apply_to_model(model, dup);
  EXPECT_EQ(r2.path, Path::kFastInsert);
  expect_matches_truth(dbc, model);
  EXPECT_FALSE(dbc.is_bridge(4, 5));
  EXPECT_TRUE(dbc.two_edge_connected(4, 5));
}

TEST(DynamicBiconn, CycleThroughPatchedBridgeAbsorbed) {
  // Epoch 1 patches a bridge between two triangles; a second edge between
  // the same components closes a cycle through the patched bridge. The
  // block-merge planner absorbs it, demoting the patched bridge in place.
  const Graph g =
      Graph::from_edges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  EdgeSetModel model(6, g.edge_list());
  DynamicBiconnectivity dbc(g, opts(2));

  UpdateBatch bridge = UpdateBatch::inserting({{0, 3}});
  EXPECT_EQ(dbc.apply(bridge).path, Path::kFastInsert);
  apply_to_model(model, bridge);
  EXPECT_TRUE(dbc.is_bridge(0, 3));

  UpdateBatch cycle = UpdateBatch::inserting({{1, 4}});
  const BiconnUpdateReport r = dbc.apply(cycle);
  apply_to_model(model, cycle);
  EXPECT_EQ(r.path, Path::kFastInsert);
  EXPECT_EQ(r.rebuild_reason, dynamic::RebuildReason::kNone);
  EXPECT_GE(r.merged_blocks, 1u);
  expect_matches_truth(dbc, model);
  EXPECT_FALSE(dbc.is_bridge(0, 3));
  EXPECT_TRUE(dbc.two_edge_connected(2, 5));
}

TEST(DynamicBiconn, MergeSearchLimitZeroRestoresRebuilds) {
  // merge_search_limit = 0 disables the block-merge algebra: the same
  // cycle-closing insert must fall back to a selective rebuild (the
  // pre-block-merge behavior) and still answer exactly.
  const Graph g = graph::gen::path(6);
  EdgeSetModel model(6, g.edge_list());
  DynamicBiconnOptions o = opts(3);
  o.merge_search_limit = 0;
  DynamicBiconnectivity dbc(g, o);

  UpdateBatch b = UpdateBatch::inserting({{0, 3}});
  const BiconnUpdateReport r = dbc.apply(b);
  apply_to_model(model, b);
  EXPECT_EQ(r.path, Path::kSelectiveRebuild);
  EXPECT_EQ(r.rebuild_reason, dynamic::RebuildReason::kCrossBlock);
  EXPECT_GE(r.dirty_components, 1u);
  EXPECT_LT(r.absorb_rate, 1.0);
  expect_matches_truth(dbc, model);
  EXPECT_TRUE(dbc.biconnected(0, 3));
}

TEST(DynamicBiconn, DeletionsSelectiveRebuildAndSplit) {
  const Graph g = graph::gen::cycle(12);
  EdgeSetModel model(12, g.edge_list());
  DynamicBiconnectivity dbc(g, opts(3));

  // One deletion: the cycle becomes a path — every edge a bridge, every
  // interior vertex an articulation point.
  UpdateBatch b1 = UpdateBatch::deleting({{0, 1}});
  const BiconnUpdateReport r1 = dbc.apply(b1);
  apply_to_model(model, b1);
  EXPECT_EQ(r1.path, Path::kSelectiveRebuild);
  expect_matches_truth(dbc, model);
  EXPECT_TRUE(dbc.is_bridge(5, 6));
  EXPECT_TRUE(dbc.is_articulation(5));
  EXPECT_FALSE(dbc.biconnected(0, 2));

  // A second deletion splits the path in two components.
  UpdateBatch b2 = UpdateBatch::deleting({{6, 7}});
  dbc.apply(b2);
  apply_to_model(model, b2);
  expect_matches_truth(dbc, model);
  EXPECT_FALSE(dbc.connected(1, 7));
}

TEST(DynamicBiconn, CleanComponentsSurviveSelectiveRebuild) {
  // Two far-apart structures; churn in one must not perturb answers in the
  // other (whose per-cluster state is copied, not recomputed).
  graph::EdgeList edges;
  for (vertex_id i = 0; i < 9; ++i) edges.push_back({i, vertex_id(i + 1)});
  // Component B: a cycle 10..19.
  for (vertex_id i = 10; i < 19; ++i) edges.push_back({i, vertex_id(i + 1)});
  edges.push_back({19, 10});
  const Graph g = Graph::from_edges(20, edges);
  EdgeSetModel model(20, edges);
  DynamicBiconnectivity dbc(g, opts(3));

  // Delete inside the path component only: the cycle component is clean.
  UpdateBatch cut = UpdateBatch::deleting({{4, 5}});
  const BiconnUpdateReport r = dbc.apply(cut);
  apply_to_model(model, cut);
  EXPECT_EQ(r.path, Path::kSelectiveRebuild);
  EXPECT_EQ(r.dirty_components, 1u);
  expect_matches_truth(dbc, model);

  // And churn the cycle while the (already rebuilt) path side stays clean.
  UpdateBatch cut2 = UpdateBatch::deleting({{12, 13}});
  const BiconnUpdateReport r2 = dbc.apply(cut2);
  apply_to_model(model, cut2);
  EXPECT_EQ(r2.path, Path::kSelectiveRebuild);
  EXPECT_EQ(r2.dirty_components, 1u);
  expect_matches_truth(dbc, model);
}

TEST(DynamicBiconn, MixedBatchesAgainstBruteForce) {
  // Randomized stress: mixed insert/delete batches on generated graphs,
  // cross-checked against a from-scratch recompute at every epoch.
  struct Case {
    Graph g;
    std::size_t k;
    std::uint64_t seed;
  };
  const std::vector<Case> cases = {
      {graph::gen::random_regular_ish(40, 3, 5), 4, 11},
      {graph::gen::percolation_grid(7, 7, 0.55, 9), 3, 23},
      {Graph::from_edges(24, {{0, 1}, {2, 3}, {4, 5}, {6, 7}}), 8, 37},
      // Sub-critical percolation with k larger than most components: the
      // virtual-heavy regime (doubled cluster edges sharing attach
      // vertices) that once mis-seeded the 2ec fixpoint's category-2
      // chaining.
      {graph::gen::percolation_grid(8, 8, 0.45, 3), 16, 777},
  };
  for (const Case& c : cases) {
    const std::size_t n = c.g.num_vertices();
    EdgeSetModel model(n, c.g.edge_list());
    DynamicBiconnectivity dbc(c.g, opts(c.k));

    EdgeList current = c.g.edge_list();
    std::uint64_t rs = c.seed;
    auto next = [&rs](std::uint64_t mod) {
      rs = parallel::mix64(rs + 0x9e3779b97f4a7c15ull);
      return rs % mod;
    };
    for (int round = 0; round < 12; ++round) {
      UpdateBatch batch;
      for (int i = 0; i < 3 && !current.empty(); ++i) {
        const std::size_t idx = next(current.size());
        batch.deletions.push_back(current[idx]);
        current.erase(current.begin() + std::ptrdiff_t(idx));
      }
      for (int i = 0; i < 3; ++i) {
        const Edge e{vertex_id(next(n)), vertex_id(next(n))};
        batch.insertions.push_back(e);
        current.push_back({std::min(e.u, e.v), std::max(e.u, e.v)});
      }
      dbc.apply(batch);
      apply_to_model(model, batch);
      expect_matches_truth(dbc, model);
    }
  }
}

TEST(DynamicBiconn, InsertOnlyStressStaysOnFastPath) {
  // Insert-only churn where every edge is absorbable: the structure must
  // stay on the O(B)-write path and keep answering exactly.
  const Graph g = graph::gen::cycle(24);
  EdgeSetModel model(24, g.edge_list());
  DynamicBiconnectivity dbc(g, opts(4));

  std::uint64_t rs = 5;
  for (int round = 0; round < 6; ++round) {
    UpdateBatch batch;
    for (int i = 0; i < 4; ++i) {
      rs = parallel::mix64(rs + 1);
      const auto u = vertex_id(rs % 24);
      rs = parallel::mix64(rs);
      const auto v = vertex_id(rs % 24);
      if (u == v) continue;
      batch.insertions.push_back({u, v});
    }
    const BiconnUpdateReport r = dbc.apply(batch);
    EXPECT_EQ(r.path, Path::kFastInsert) << "round " << round;
    apply_to_model(model, batch);
    expect_matches_truth(dbc, model);
  }
}

TEST(DynamicBiconn, DenseChurnStressStaysAbsorbedAndExact) {
  // The loadgen's dense-churn shape: mostly fresh (often cycle-closing)
  // inserts plus LIFO deletions of this test's own recent insertions.
  // Block-merge absorbs the inserts and deletion triage cancels the LIFO
  // deletions against the patch journal, so nearly every batch stays on
  // the O(B)-write fast path — while every epoch's full query surface,
  // including the edge_bcc block-id partition, matches Hopcroft–Tarjan.
  const Graph g = graph::gen::percolation_grid(8, 8, 0.6, 17);
  const std::size_t n = g.num_vertices();
  EdgeSetModel model(n, g.edge_list());
  DynamicBiconnectivity dbc(g, opts(4));

  std::uint64_t rs = 2024;
  std::vector<Edge> stack;
  double last_rate = 1.0;
  for (int round = 0; round < 20; ++round) {
    UpdateBatch batch;
    for (int i = 0; i < 6; ++i) {
      rs = parallel::mix64(rs + 1);
      const auto u = vertex_id(rs % n);
      rs = parallel::mix64(rs);
      const auto v = vertex_id(rs % n);
      if (u == v) continue;
      batch.insertions.push_back({u, v});
    }
    for (int i = 0; i < 2 && !stack.empty(); ++i) {
      const Edge e = stack.back();
      bool dup = false;  // a batch may delete each pair at most once
      for (const Edge& d : batch.deletions) {
        dup |= std::minmax(d.u, d.v) == std::minmax(e.u, e.v);
      }
      if (dup) break;
      batch.deletions.push_back(e);
      stack.pop_back();
    }
    const BiconnUpdateReport r = dbc.apply(batch);
    last_rate = r.absorb_rate;
    for (const Edge& e : batch.insertions) stack.push_back(e);
    apply_to_model(model, batch);
    expect_matches_truth(dbc, model);
    expect_block_partition_matches(dbc, model);
  }
  // Dense churn is the absorbable regime: the cumulative absorb rate must
  // clear the same bar the perf gate holds the bench rows to.
  EXPECT_GE(last_rate, 0.9);
}

/// Dense LIFO churn over a side×side subcritical percolation grid, the
/// shape of the benchmark's churn-dense workload. An insert-only batch of
/// 48 random edges opens the stream; every later batch inserts 48 more and
/// deletes 16 of the stream's own earlier insertions, taken `reach`
/// insertions below the top of the stack (0 = strict LIFO). Every
/// `frozen_every`-th batch (0 = never) also deletes one copy of a base edge
/// the grid carries in triplicate: two parallel copies survive, so the
/// certificate passes and the new mask rewinds the journal to its start.
/// Every `check_every`-th epoch and the last have their full query surface
/// checked against Hopcroft–Tarjan (about 1.4 s per check at 120×120).
/// Returns the reports of the batches after the opening one.
struct LifoChurn {
  std::size_t side = 120;
  std::size_t k = 16;
  std::size_t batches = 0;
  std::size_t reach = 0;
  std::size_t frozen_every = 0;
  std::size_t check_every = 1;
};

std::vector<BiconnUpdateReport> run_lifo_churn(const LifoChurn& shape) {
  const Graph grid =
      graph::gen::percolation_grid(shape.side, shape.side, 0.45, 23);
  const std::size_t n = grid.num_vertices();
  EdgeList edges = grid.edge_list();
  EdgeList spares;  // base edges carried in triplicate
  for (std::size_t i = 0; i < grid.num_edges() && shape.frozen_every != 0;
       i += 97) {
    spares.push_back(edges[i]);
    edges.push_back(edges[i]);
    edges.push_back(edges[i]);
  }
  const Graph g = Graph::from_edges(n, edges);
  EdgeSetModel model(n, g.edge_list());
  DynamicBiconnectivity dbc(g, opts(shape.k));

  std::uint64_t rs = 77;
  const auto fresh_edges = [&](UpdateBatch& batch) {
    for (int i = 0; i < 48; ++i) {
      rs = parallel::mix64(rs + 1);
      const auto u = vertex_id(rs % n);
      rs = parallel::mix64(rs);
      batch.insertions.push_back({u, vertex_id(rs % n)});
    }
  };
  std::vector<Edge> stack;
  std::vector<BiconnUpdateReport> reports;
  for (std::size_t b = 0; b <= shape.batches; ++b) {
    UpdateBatch batch;
    if (b > 0) {
      const std::size_t top =
          stack.size() > shape.reach ? stack.size() - shape.reach : 0;
      std::size_t i = top > 16 ? top - 16 : 0;
      while (i < stack.size() && batch.deletions.size() < 16) {
        const Edge e = stack[i];
        bool dup = false;  // a batch deletes each pair at most once
        for (const Edge& d : batch.deletions) {
          dup |= std::minmax(d.u, d.v) == std::minmax(e.u, e.v);
        }
        if (dup) {
          ++i;
          continue;
        }
        batch.deletions.push_back(e);
        stack.erase(stack.begin() + std::ptrdiff_t(i));
      }
      if (shape.frozen_every != 0 && b % shape.frozen_every == 0) {
        batch.deletions.push_back(spares.at(b / shape.frozen_every));
      }
    }
    fresh_edges(batch);
    const BiconnUpdateReport r = dbc.apply(batch);
    apply_to_model(model, batch);
    for (const Edge& e : batch.insertions) stack.push_back(e);
    if (b % shape.check_every == 0 || b == shape.batches) {
      expect_surface_matches(dbc, model);
      if (::testing::Test::HasFatalFailure()) return reports;
    }
    if (b == 0) {
      EXPECT_EQ(r.path, Path::kFastInsert);
    } else {
      reports.push_back(r);
    }
  }
  return reports;
}

double mean_writes(const std::vector<BiconnUpdateReport>& reports,
                   std::size_t begin, std::size_t end) {
  double sum = 0;
  for (std::size_t i = begin; i < end; ++i) sum += double(reports[i].writes);
  return sum / double(end - begin);
}

TEST(DynamicBiconn, LifoChurnCostStaysFlat) {
  // Per-batch cost must not grow with history: each batch rewinds the
  // journal only to its first cancelled event, so the work tracks the
  // batch, not the journal. Writes, not reads: counted reads of a rebuild
  // drift at more than one thread, writes are exact.
  const auto reports = run_lifo_churn({.batches = 150, .check_every = 150});
  ASSERT_EQ(reports.size(), 150u);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].path, Path::kFastMixed) << "batch " << i + 1;
    EXPECT_EQ(reports[i].absorbed_deletions, 16u) << "batch " << i + 1;
  }
  // Batches 6–20 against the last 15 (1-based, the opening batch aside).
  EXPECT_LE(mean_writes(reports, 135, 150), 2 * mean_writes(reports, 5, 20));
}

TEST(DynamicBiconn, DeepLifoChurnRewindsExactly) {
  // Deletions reach back two to three batches, so each rewind undoes and
  // re-plans the events of several batches. Every epoch is checked, on a
  // smaller grid to keep the checks affordable.
  const auto reports =
      run_lifo_churn({.side = 40, .k = 8, .batches = 16, .reach = 96});
  ASSERT_EQ(reports.size(), 16u);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].path, Path::kFastMixed) << "batch " << i + 1;
    EXPECT_EQ(reports[i].absorbed_deletions, 16u) << "batch " << i + 1;
  }
}

TEST(DynamicBiconn, FrozenDeletionRewindsToJournalStart) {
  // Every fourth batch masks a frozen edge, which re-plans the whole journal
  // under the new mask; the batches between rewind only their tail. Every
  // epoch is checked, on a smaller grid to keep the checks affordable.
  const auto reports = run_lifo_churn(
      {.side = 40, .k = 8, .batches = 16, .frozen_every = 4});
  ASSERT_EQ(reports.size(), 16u);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const std::size_t b = i + 1;
    EXPECT_EQ(reports[i].path, Path::kFastMixed) << "batch " << b;
    EXPECT_EQ(reports[i].absorbed_deletions, b % 4 == 0 ? 17u : 16u)
        << "batch " << b;
  }
}

TEST(DynamicBiconn, ReplayEventLimitBoundsRewoundWork) {
  // The limit caps the events a batch re-plans, not the journal: LIFO
  // churn whose journal outgrows it stays absorbed, while a batch that
  // cancels an event deeper than the limit overflows to a rebuild.
  const Graph g = graph::gen::percolation_grid(30, 30, 0.45, 5);
  const std::size_t n = g.num_vertices();
  EdgeSetModel model(n, g.edge_list());
  DynamicBiconnOptions o = opts(8);
  o.replay_event_limit = 100;
  DynamicBiconnectivity dbc(g, o);

  std::uint64_t rs = 31;
  std::vector<Edge> stack;
  for (int b = 0; b < 30; ++b) {
    UpdateBatch batch;
    for (int i = 0; i < 4 && b > 0; ++i) {
      batch.deletions.push_back(stack.back());
      stack.pop_back();
    }
    for (int i = 0; i < 12; ++i) {
      rs = parallel::mix64(rs + 1);
      const auto u = vertex_id(rs % n);
      rs = parallel::mix64(rs);
      const auto v = vertex_id(rs % n);
      if (u == v) continue;
      batch.insertions.push_back({u, v});
    }
    const BiconnUpdateReport r = dbc.apply(batch);
    EXPECT_EQ(r.path, b == 0 ? Path::kFastInsert : Path::kFastMixed)
        << "batch " << b;
    apply_to_model(model, batch);
    for (const Edge& e : batch.insertions) stack.push_back(e);
  }
  EXPECT_GT(dbc.snapshot()->patch().events().size(), o.replay_event_limit);
  expect_surface_matches(dbc, model);

  // The stream's oldest insertion is the journal's first event.
  const UpdateBatch deep = UpdateBatch::deleting({stack.front()});
  const BiconnUpdateReport r = dbc.apply(deep);
  EXPECT_EQ(r.path, Path::kSelectiveRebuild);
  EXPECT_EQ(r.rebuild_reason, dynamic::RebuildReason::kDeletionOverflow);
  apply_to_model(model, deep);
  expect_surface_matches(dbc, model);
}

TEST(DynamicBiconn, SnapshotIsolationAcrossEpochs) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}});
  DynamicBiconnectivity dbc(g, opts(2));

  const auto pinned = dbc.snapshot();
  EXPECT_EQ(pinned->epoch(), 0u);
  EXPECT_FALSE(pinned->connected(2, 3));
  EXPECT_TRUE(pinned->is_bridge(3, 4));

  dbc.insert_edges({{2, 3}});          // fast path: patched bridge
  dbc.delete_edges({{0, 1}});          // selective rebuild

  EXPECT_FALSE(pinned->connected(2, 3));
  EXPECT_TRUE(pinned->biconnected(0, 1));
  const auto now = dbc.snapshot();
  EXPECT_EQ(now->epoch(), 2u);
  EXPECT_TRUE(now->connected(2, 3));
  EXPECT_TRUE(now->is_bridge(2, 3));
  EXPECT_FALSE(now->biconnected(0, 1));
}

TEST(DynamicBiconn, CompactionThresholdTriggersFullRebuild) {
  const Graph g = graph::gen::path(32);
  EdgeSetModel model(32, g.edge_list());
  DynamicBiconnectivity dbc(g, opts(3, /*compact_threshold=*/6));

  // Three absorbable-looking edges overflow the overlay delta: compaction.
  UpdateBatch big = UpdateBatch::inserting({{0, 31}, {5, 20}, {9, 27}});
  const BiconnUpdateReport r = dbc.apply(big);
  apply_to_model(model, big);
  EXPECT_EQ(r.path, Path::kCompaction);
  EXPECT_EQ(dbc.overlay_delta_size(), 0u);
  expect_matches_truth(dbc, model);

  UpdateBatch del = UpdateBatch::deleting({{9, 27}, {15, 16}});
  dbc.apply(del);
  apply_to_model(model, del);
  expect_matches_truth(dbc, model);
}

TEST(DynamicBiconn, ApplyStrongExceptionGuaranteeAllPaths) {
  // A hook that throws after the new epoch is staged must leave epoch,
  // answers, edge list, pending patch, and snapshot ring untouched — for
  // every update path, and for compact().
  const Graph g = graph::gen::cycle(24);
  EdgeSetModel model(24, g.edge_list());
  DynamicBiconnectivity dbc(g, opts(3, /*compact_threshold=*/10));
  dbc.insert_edges({{0, 12}});  // pending fast-path patch state to protect
  apply_to_model(model, UpdateBatch::inserting({{0, 12}}));

  struct State {
    std::uint64_t epoch;
    std::size_t store_size;
    EdgeList edges;
    std::vector<std::uint8_t> answers;
  };
  const auto capture = [&](const DynamicBiconnectivity& d) {
    State s;
    s.epoch = d.epoch();
    s.store_size = d.store().size();
    s.edges = testutil::canonical_edges(d.current_edge_list());
    const auto snap = d.snapshot();
    for (vertex_id u = 0; u < 24; ++u) {
      s.answers.push_back(snap->is_articulation(u) ? 1 : 0);
      for (vertex_id v = u; v < 24; v = vertex_id(v + 5)) {
        s.answers.push_back(snap->connected(u, v) ? 1 : 0);
        s.answers.push_back(snap->biconnected(u, v) ? 1 : 0);
        s.answers.push_back(snap->two_edge_connected(u, v) ? 1 : 0);
        s.answers.push_back(snap->is_bridge(u, v) ? 1 : 0);
      }
    }
    return s;
  };
  const auto expect_state_eq = [](const State& got, const State& want) {
    EXPECT_EQ(got.epoch, want.epoch);
    EXPECT_EQ(got.store_size, want.store_size);
    EXPECT_EQ(got.edges, want.edges);
    EXPECT_EQ(got.answers, want.answers);
  };

  std::vector<Path> attempted;
  dbc.set_failure_injection_hook([&](Path p) {
    attempted.push_back(p);
    throw std::bad_alloc();
  });

  const UpdateBatch fast = UpdateBatch::inserting({{1, 13}});
  // Deleting the pending patch edge {0, 12} alongside an insertion drives
  // the fast-mixed (block-merge triage) commit path.
  UpdateBatch mixed = UpdateBatch::inserting({{2, 14}});
  mixed.deletions.push_back({0, 12});
  // Deleting a cycle edge fails the 2-connectivity certificate: rebuild.
  const UpdateBatch selective = UpdateBatch::deleting({{3, 4}});
  const UpdateBatch compacting =
      UpdateBatch::inserting({{2, 14}, {5, 17}, {6, 18}, {7, 19}});

  const State before = capture(dbc);
  EXPECT_THROW(dbc.apply(fast), std::bad_alloc);
  expect_state_eq(capture(dbc), before);
  EXPECT_THROW(dbc.apply(mixed), std::bad_alloc);
  expect_state_eq(capture(dbc), before);
  EXPECT_THROW(dbc.apply(selective), std::bad_alloc);
  expect_state_eq(capture(dbc), before);
  EXPECT_THROW(dbc.apply(compacting), std::bad_alloc);
  expect_state_eq(capture(dbc), before);
  EXPECT_THROW(dbc.compact(), std::bad_alloc);
  expect_state_eq(capture(dbc), before);
  ASSERT_EQ(attempted,
            (std::vector<Path>{Path::kFastInsert, Path::kFastMixed,
                               Path::kSelectiveRebuild, Path::kCompaction,
                               Path::kCompaction}));

  // The structure is not poisoned: with the hook cleared, the very same
  // batches apply cleanly and agree with ground truth.
  dbc.set_failure_injection_hook(nullptr);
  dbc.apply(fast);
  apply_to_model(model, fast);
  expect_matches_truth(dbc, model);
  dbc.apply(mixed);
  apply_to_model(model, mixed);
  expect_matches_truth(dbc, model);
  dbc.apply(selective);
  apply_to_model(model, selective);
  expect_matches_truth(dbc, model);
  dbc.apply(compacting);
  apply_to_model(model, compacting);
  expect_matches_truth(dbc, model);
  EXPECT_EQ(dbc.epoch(), 5u);
}

TEST(DynamicBiconn, RejectsMalformedBatches) {
  const Graph g = graph::gen::path(5);
  DynamicBiconnectivity dbc(g, opts(2));
  EXPECT_THROW(dbc.insert_edges({{0, 5}}), std::out_of_range);
  EXPECT_THROW(dbc.delete_edges({{0, 2}}), std::invalid_argument);
  EXPECT_THROW(dbc.delete_edges({{0, 1}, {0, 1}}), std::invalid_argument);
  EXPECT_EQ(dbc.epoch(), 0u);
  EXPECT_TRUE(dbc.connected(0, 1));
}

TEST(DynamicBiconn, UpdateWritesStaySublinear) {
  // The write-efficiency claim: an absorbable B-edge batch charges O(B)
  // writes, not O(n). grid2d is 2-connected, so every insertion lands
  // inside the single block.
  const Graph g = graph::gen::grid2d(40, 40);
  DynamicBiconnectivity dbc(g, opts(6));

  EdgeList batch;
  for (vertex_id i = 0; i < 32; ++i) {
    batch.push_back({i, vertex_id(1600 - 1 - i)});
  }
  amem::reset();
  const BiconnUpdateReport r = dbc.insert_edges(batch);
  EXPECT_EQ(r.path, Path::kFastInsert);
  const auto cost = amem::snapshot();
  EXPECT_LT(cost.writes, 10 * batch.size());
}

/// The scalar answer of one query, per snapshot surface.
bool scalar_answer(const dynamic::Snapshot& s, const MixedQuery& q) {
  return s.connected(q.u, q.v);  // the connectivity surface: kConnected only
}
bool scalar_answer(const dynamic::BiconnSnapshot& s, const MixedQuery& q) {
  switch (q.kind) {
    case MixedQuery::Kind::kConnected: return s.connected(q.u, q.v);
    case MixedQuery::Kind::kBiconnected: return s.biconnected(q.u, q.v);
    case MixedQuery::Kind::kTwoEdgeConnected:
      return s.two_edge_connected(q.u, q.v);
    case MixedQuery::Kind::kArticulation: return s.is_articulation(q.u);
    case MixedQuery::Kind::kBridge: return s.is_bridge(q.u, q.v);
    case MixedQuery::Kind::kEdgeBcc: return s.edge_block_id(q.u, q.v) != 0;
  }
  return false;
}

/// The engine over `snap` answers `queries` exactly like scalar queries.
template <typename Snap>
std::vector<std::uint8_t> expect_engine_matches_scalar(
    const std::shared_ptr<const Snap>& snap,
    const std::vector<MixedQuery>& queries) {
  const auto got = dynamic::BatchQueryEngine(snap).answer(queries);
  EXPECT_EQ(got.size(), queries.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i] != 0, scalar_answer(*snap, queries[i])) << i;
  }
  return got;
}

TEST(BiconnBatchQuery, MixedVectorMatchesScalarQueries) {
  const Graph g = graph::gen::percolation_grid(8, 8, 0.55, 3);
  DynamicBiconnectivity dbc(g, opts(4));
  dbc.insert_edges({{0, vertex_id(g.num_vertices() - 1)}});

  const auto snap = dbc.snapshot();
  const dynamic::BiconnBatchQueryEngine engine(snap);
  const auto n = vertex_id(g.num_vertices());
  std::vector<MixedQuery> queries;
  std::vector<MixedQuery> connected;
  for (vertex_id i = 0; i < n; ++i) {
    const auto v = vertex_id((i * 37 + 5) % n);
    queries.push_back({MixedQuery::Kind::kConnected, i, v});
    queries.push_back({MixedQuery::Kind::kBiconnected, i, v});
    queries.push_back({MixedQuery::Kind::kTwoEdgeConnected, i, v});
    queries.push_back({MixedQuery::Kind::kArticulation, i, 0});
    queries.push_back({MixedQuery::Kind::kBridge, i, v});
    queries.push_back({MixedQuery::Kind::kEdgeBcc, i, v});
    connected.push_back({MixedQuery::Kind::kConnected, i, v});
  }
  const auto got = expect_engine_matches_scalar(snap, queries);

  // The same engine over the connectivity snapshot answers kConnected and
  // rejects every other kind, and both reject out-of-range endpoints.
  dynamic::DynamicOptions copt;
  copt.oracle.k = 4;
  dynamic::DynamicConnectivity dc(g, copt);
  dc.insert_edges({{0, vertex_id(g.num_vertices() - 1)}});
  (void)expect_engine_matches_scalar(dc.snapshot(), connected);
  const dynamic::BatchQueryEngine conn_engine(dc.snapshot());
  EXPECT_THROW((void)conn_engine.answer(queries), std::invalid_argument);
  const std::vector<MixedQuery> oob{{MixedQuery::Kind::kConnected, 0, n}};
  EXPECT_THROW((void)conn_engine.answer(oob), std::out_of_range);
  EXPECT_THROW((void)engine.answer(oob), std::out_of_range);

  // block_ids answers the kEdgeBcc subset with the scalar ids, in order.
  const auto ids = engine.block_ids(queries);
  std::size_t next_id = 0;
  for (const MixedQuery& q : queries) {
    if (q.kind != MixedQuery::Kind::kEdgeBcc) continue;
    ASSERT_LT(next_id, ids.size());
    EXPECT_EQ(ids[next_id], snap->edge_block_id(q.u, q.v));
    ++next_id;
  }
  EXPECT_EQ(next_id, ids.size());
  // answer_with_ids fills both in one pass, with the same values.
  const dynamic::MixedAnswers both = engine.answer_with_ids(queries);
  EXPECT_EQ(both.answers, got);
  EXPECT_EQ(both.block_ids, ids);

  // Pinned engines survive ring eviction, like the connectivity engine.
  for (int i = 0; i < 8; ++i) {
    dbc.insert_edges({{vertex_id(i), vertex_id(i + 1)}});
  }
  const auto again = engine.answer(queries);
  EXPECT_EQ(again, got);
}

TEST(BiconnOracle, MovedOracleKeepsAnswers) {
  // Regression for the BlockedLca self-reference: a built oracle must stay
  // valid after being moved (the dynamic layer moves oracles into
  // shared_ptr-owned versions).
  const Graph g = graph::gen::percolation_grid(6, 6, 0.6, 7);
  biconn::BiconnOracleOptions bopt;
  bopt.k = 3;
  auto built = biconn::BiconnectivityOracle<Graph>::build(g, bopt);
  std::vector<std::uint8_t> before;
  const auto n = vertex_id(g.num_vertices());
  for (vertex_id u = 0; u < n; ++u) {
    before.push_back(built.is_articulation(u) ? 1 : 0);
    before.push_back(built.biconnected(u, vertex_id((u * 7 + 3) % n)) ? 1 : 0);
  }
  std::optional<biconn::BiconnectivityOracle<Graph>> moved(std::move(built));
  std::vector<std::uint8_t> after;
  for (vertex_id u = 0; u < n; ++u) {
    after.push_back(moved->is_articulation(u) ? 1 : 0);
    after.push_back(moved->biconnected(u, vertex_id((u * 7 + 3) % n)) ? 1 : 0);
  }
  EXPECT_EQ(before, after);
}

}  // namespace
