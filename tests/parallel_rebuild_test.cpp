// Parallel selective-rebuild suite (docs/parallel_rebuild.md):
//
//  * the worker-capped parallel_for the rebuild passes run on — full
//    coverage, order-independence and exception propagation (the property
//    the dynamic facades' strong exception guarantee rides on);
//  * RebuildPlanner thread resolution — explicit option beats the pool
//    size;
//  * the determinism contract — rebuild_threads in {1, 2, pool} publish
//    identical labels, bridges and articulation sets across a batch
//    sequence where every apply pays a selective rebuild, on both facades;
//  * a TSan race hunt — a writer whose sharded rebuild passes run on the
//    pool while reader threads pin snapshots and re-query them. Assertions
//    are within-snapshot only; ThreadSanitizer adds the real ones when the
//    CI sanitize-thread leg raises WECC_RACE_HUNT_MS.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_biconnectivity.hpp"
#include "dynamic/dynamic_connectivity.hpp"
#include "dynamic/rebuild_planner.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace wecc {
namespace {

// Force a real worker pool before its first use, so the sharded passes
// exercise cross-thread scheduling even on single-core CI runners.
const bool g_force_pool = [] {
  parallel::set_num_threads(4);
  return true;
}();

using graph::vertex_id;

std::chrono::milliseconds race_hunt_budget() {
  if (const char* env = std::getenv("WECC_RACE_HUNT_MS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return std::chrono::milliseconds(v);
  }
  return std::chrono::milliseconds(1500);  // smoke-level churn by default
}

// ---------------------------------------------------------------------------
// The worker-capped parallel_for (grain 1: one item per cluster)
// ---------------------------------------------------------------------------

TEST(WorkerCappedFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t workers : {0u, 1u, 2u, 4u, 7u}) {
    for (const std::size_t n : {0u, 1u, 3u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      parallel::parallel_for(
          0, n,
          [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          },
          1, workers);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " workers=" << workers
                                     << " i=" << i;
      }
    }
  }
}

TEST(WorkerCappedFor, DisjointSlotsMakeResultsThreadCountIndependent) {
  const std::size_t n = 500;
  std::vector<std::uint64_t> serial(n), parallel_out(n);
  const auto body = [](std::size_t i) {
    return std::uint64_t(i) * 2654435761u + 17;
  };
  parallel::parallel_for(
      0, n, [&](std::size_t i) { serial[i] = body(i); }, 1, 1);
  parallel::parallel_for(
      0, n, [&](std::size_t i) { parallel_out[i] = body(i); }, 1, 4);
  EXPECT_EQ(serial, parallel_out);
}

TEST(WorkerCappedFor, ExceptionPropagatesToCaller) {
  for (const std::size_t workers : {1u, 4u}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(parallel::parallel_for(
                     0, 100,
                     [&](std::size_t i) {
                       ran.fetch_add(1);
                       if (i == 37) throw std::runtime_error("shard 37");
                     },
                     1, workers),
                 std::runtime_error)
        << "workers=" << workers;
    EXPECT_GE(ran.load(), 1);
  }
}

// ---------------------------------------------------------------------------
// RebuildPlanner
// ---------------------------------------------------------------------------

TEST(RebuildPlanner, ExplicitOptionThenPoolSize) {
  EXPECT_EQ(dynamic::RebuildPlanner::resolve_threads(2), 2u);
  EXPECT_EQ(dynamic::RebuildPlanner::resolve_threads(1), 1u);
  EXPECT_EQ(dynamic::RebuildPlanner::resolve_threads(0),
            parallel::num_threads());
}

TEST(RebuildPlanner, PlanEchoesTrackerAndShards) {
  dynamic::DirtyTracker dirty;
  dirty.mark_cluster(4);
  dirty.mark_cluster(9);
  const dynamic::RebuildPlan p = dynamic::RebuildPlanner::plan(dirty, 40, 2);
  EXPECT_EQ(p.threads, 2u);
  EXPECT_EQ(p.shards, parallel::block_count(40, 1, 2));
  EXPECT_EQ(p.dirty_clusters, 2u);
}

// ---------------------------------------------------------------------------
// Determinism: identical published state for any rebuild_threads value.
// ---------------------------------------------------------------------------

/// Mixed half-delete / half-insert batches generated independently of any
/// facade (deletions always come from earlier insertions), so the same
/// sequence can drive several facades identically.
std::vector<dynamic::UpdateBatch> make_batches(std::size_t n,
                                               std::size_t batches,
                                               std::size_t batch_size) {
  parallel::Rng rng(20260807);
  graph::EdgeList pool;
  std::vector<dynamic::UpdateBatch> out;
  for (std::size_t b = 0; b < batches; ++b) {
    dynamic::UpdateBatch batch;
    for (std::size_t i = 0; i < batch_size / 2; ++i) {
      batch.insertions.push_back({vertex_id(rng.next_int(n)),
                                  vertex_id(rng.next_int(n))});
    }
    while (batch.deletions.size() < batch_size / 2 && !pool.empty()) {
      batch.deletions.push_back(pool.back());
      pool.pop_back();
    }
    for (const auto& e : batch.insertions) pool.push_back(e);
    out.push_back(std::move(batch));
  }
  return out;
}

TEST(ParallelRebuildDeterminism, BiconnFacadeAgreesAcrossThreadCounts) {
  const graph::Graph base = graph::gen::percolation_grid(40, 40, 0.45, 11);
  const std::size_t n = base.num_vertices();
  const auto batches = make_batches(n, 6, 64);

  // Two facades per thread count: one with the block-merge algebra
  // disabled (merge_search_limit = 0) so the LIFO churn still exercises
  // the parallel selective rebuild, and one with it enabled so the
  // O(B)-write absorb path is held to the same determinism bar. All six
  // must agree on the full query surface after every epoch.
  const std::vector<std::size_t> thread_options = {1, 2,
                                                   parallel::num_threads()};
  std::vector<std::unique_ptr<dynamic::DynamicBiconnectivity>> facades;
  std::vector<std::size_t> facade_threads;
  for (const bool merging : {false, true}) {
    for (const std::size_t t : thread_options) {
      dynamic::DynamicBiconnOptions opt;
      opt.oracle.k = 4;
      opt.rebuild_threads = t;
      if (!merging) opt.merge_search_limit = 0;
      facades.push_back(std::make_unique<dynamic::DynamicBiconnectivity>(
          graph::Graph(base), opt));
      facade_threads.push_back(t);
    }
  }
  const std::size_t trio = thread_options.size();

  std::size_t selective_seen = 0;
  for (const auto& batch : batches) {
    std::vector<dynamic::BiconnUpdateReport::Path> paths;
    for (std::size_t f = 0; f < facades.size(); ++f) {
      const auto report = facades[f]->apply(batch);
      paths.push_back(report.path);
      if (report.path ==
          dynamic::BiconnUpdateReport::Path::kSelectiveRebuild) {
        ++selective_seen;
        EXPECT_EQ(report.rebuild_threads, facade_threads[f]);
      }
    }
    // The chosen update path is thread-count independent within each trio.
    for (std::size_t f = 0; f < facades.size(); ++f) {
      ASSERT_EQ(paths[f], paths[f / trio * trio]) << "facade " << f;
    }
    // Full query surface agrees pairwise after every epoch — including
    // across the merging/non-merging divide, where the representations
    // differ but the answers must not.
    const auto s0 = facades[0]->snapshot();
    const auto sm = facades[trio]->snapshot();
    for (std::size_t f = 1; f < facades.size(); ++f) {
      const auto sf = facades[f]->snapshot();
      for (vertex_id v = 0; v < n; ++v) {
        ASSERT_EQ(s0->component_of(v), sf->component_of(v)) << "v=" << v;
        ASSERT_EQ(s0->is_articulation(v), sf->is_articulation(v))
            << "v=" << v;
      }
      const graph::EdgeList edges = facades[0]->current_edge_list();
      ASSERT_EQ(edges, facades[f]->current_edge_list());
      for (const auto& [u, v] : edges) {
        if (u == v) continue;
        ASSERT_EQ(s0->is_bridge(u, v), sf->is_bridge(u, v))
            << u << "," << v;
        ASSERT_EQ(s0->biconnected(u, v), sf->biconnected(u, v))
            << u << "," << v;
        ASSERT_EQ(s0->two_edge_connected(u, v),
                  sf->two_edge_connected(u, v))
            << u << "," << v;
        // Within the merging trio, block ids (patch-union winners
        // included) are bit-identical across thread counts.
        if (f > trio) {
          ASSERT_EQ(sm->edge_block_id(u, v), sf->edge_block_id(u, v))
              << u << "," << v;
        }
      }
    }
  }
  // Every batch has deletions from the second on, so the non-merging trio
  // must have exercised the selective path on every facade.
  EXPECT_GE(selective_seen, trio);
}

TEST(ParallelRebuildDeterminism, ConnFacadeAgreesAcrossThreadCounts) {
  const graph::Graph base = graph::gen::percolation_grid(40, 40, 0.45, 7);
  const std::size_t n = base.num_vertices();
  const auto batches = make_batches(n, 6, 64);

  const std::vector<std::size_t> thread_options = {1, 2,
                                                   parallel::num_threads()};
  std::vector<std::unique_ptr<dynamic::DynamicConnectivity>> facades;
  for (const std::size_t t : thread_options) {
    dynamic::DynamicOptions opt;
    opt.oracle.k = 4;
    opt.rebuild_threads = t;
    facades.push_back(std::make_unique<dynamic::DynamicConnectivity>(
        graph::Graph(base), opt));
  }

  std::size_t selective_seen = 0;
  for (const auto& batch : batches) {
    for (std::size_t f = 0; f < facades.size(); ++f) {
      const auto report = facades[f]->apply(batch);
      if (report.path == dynamic::UpdateReport::Path::kSelectiveRebuild) {
        ++selective_seen;
        EXPECT_EQ(report.rebuild_threads, thread_options[f]);
        EXPECT_GE(report.rebuild_shards, 1u);
      }
    }
    const auto s0 = facades[0]->snapshot();
    for (std::size_t f = 1; f < facades.size(); ++f) {
      const auto sf = facades[f]->snapshot();
      for (vertex_id v = 0; v < n; ++v) {
        ASSERT_EQ(s0->component_of(v), sf->component_of(v)) << "v=" << v;
      }
    }
  }
  EXPECT_GE(selective_seen, facades.size());
}

// ---------------------------------------------------------------------------
// TSan race hunt: sharded rebuild passes vs pinned-snapshot readers.
// ---------------------------------------------------------------------------

TEST(ParallelRebuildRaceHunt, ShardedWriterVsPinnedReaders) {
  const graph::Graph base = graph::gen::percolation_grid(30, 30, 0.45, 3);
  dynamic::DynamicBiconnOptions opt;
  opt.oracle.k = 4;
  opt.rebuild_threads = 2;  // sharded passes share the pool with readers
  dynamic::DynamicBiconnectivity dbc(graph::Graph(base), opt);
  const std::size_t n = dbc.num_vertices();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> applied{0};

  std::thread writer([&] {
    parallel::Rng rng(99);
    graph::EdgeList pool;
    while (!stop.load(std::memory_order_acquire)) {
      dynamic::UpdateBatch batch;
      for (std::size_t i = 0; i < 16; ++i) {
        batch.insertions.push_back({vertex_id(rng.next_int(n)),
                                    vertex_id(rng.next_int(n))});
      }
      while (batch.deletions.size() < 16 && !pool.empty()) {
        batch.deletions.push_back(pool.back());
        pool.pop_back();
      }
      for (const auto& e : batch.insertions) pool.push_back(e);
      dbc.apply(batch);  // deletions present: selective rebuild every time
      applied.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      parallel::Rng rng(1000 + r);
      while (!stop.load(std::memory_order_acquire)) {
        const auto snap = dbc.snapshot();
        // Within-snapshot invariant: a pinned epoch is immutable, so the
        // same query asked twice must agree with itself.
        const auto u = vertex_id(rng.next_int(n));
        const auto v = vertex_id(rng.next_int(n));
        const bool c1 = snap->connected(u, v);
        const bool b1 = snap->biconnected(u, v);
        ASSERT_EQ(c1, snap->connected(u, v));
        ASSERT_EQ(b1, snap->biconnected(u, v));
        if (b1) ASSERT_TRUE(c1);
        ASSERT_EQ(snap->is_articulation(u), snap->is_articulation(u));
      }
    });
  }

  std::this_thread::sleep_for(race_hunt_budget());
  stop.store(true, std::memory_order_release);
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_GE(applied.load(), 1u);
}

}  // namespace
}  // namespace wecc
