// RebuildPlanner: policy layer between the dynamic facades and the sharded
// rebuild execution (parallel::parallel_for with a worker cap).
//
// A selective rebuild has one tunable — how many workers run its
// per-cluster passes — and two derived execution facts the update report
// surfaces: the shard partition of the dirty work and the dirty-cluster
// count the DirtyTracker accumulated. The planner owns the resolution
// order for the worker count so both facades (and wecc_server's
// --rebuild-threads flag) agree on it:
//
//   1. an explicit per-facade option (DynamicOptions::rebuild_threads /
//      DynamicBiconnOptions::rebuild_threads >= 1) wins;
//   2. otherwise the global pool size (parallel::num_threads(), set by
//      WECC_THREADS).
//
// Sharding model: the shard unit is the *cluster* (center index) — the
// granularity DirtyTracker records and the oracle's construction passes
// iterate at. Shards rebuild independently (disjoint output slots, serial
// merges in cluster order, see docs/parallel_rebuild.md for the
// determinism contract) and the result publishes through the facades'
// existing strong-exception-guarantee staging — the planner never touches
// published state.
#pragma once

#include <cstddef>

#include "dynamic/dirty_tracker.hpp"
#include "parallel/parallel_for.hpp"

namespace wecc::dynamic {

/// How one selective rebuild will execute (and, after the fact, what the
/// update report echoes).
struct RebuildPlan {
  std::size_t threads = 1;        // resolved worker count
  std::size_t shards = 1;         // shard partition of `work_items`
  std::size_t dirty_clusters = 0; // clusters the tracker marked
};

class RebuildPlanner {
 public:
  /// Resolve the worker count for a rebuild: explicit option, then the
  /// pool size.
  [[nodiscard]] static std::size_t resolve_threads(std::size_t requested) {
    return requested >= 1 ? requested : parallel::num_threads();
  }

  /// Plan a rebuild whose sharded passes iterate `work_items` units
  /// (typically the cluster count of the decomposition being rebuilt).
  [[nodiscard]] static RebuildPlan plan(const DirtyTracker& dirty,
                                        std::size_t work_items,
                                        std::size_t requested_threads) {
    RebuildPlan p;
    p.threads = resolve_threads(requested_threads);
    p.shards = parallel::block_count(work_items, 1, p.threads);
    p.dirty_clusters = dirty.num_clusters();
    return p;
  }
};

}  // namespace wecc::dynamic
