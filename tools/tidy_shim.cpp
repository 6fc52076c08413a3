// Translation unit for static analysis, not for linking: it includes every
// public header so clang-tidy (driven by scripts/run_clang_tidy.sh through
// compile_commands.json) analyzes the header-only layers — dynamic/,
// decomp/, connectivity/, biconn/, primitives/ — which no src/*.cpp TU
// pulls in. Built only under -DWECC_BUILD_TIDY_SHIM=ON as an OBJECT
// library; keep the include list in sync when adding headers (the
// run_clang_tidy.sh driver cross-checks it against `find src -name
// '*.hpp'` and fails if a header is missing).

#include "amem/asym_array.hpp"
#include "amem/counters.hpp"
#include "amem/sym_scratch.hpp"
#include "biconn/bc_labeling.hpp"
#include "biconn/bc_labeling_impl.hpp"
#include "biconn/biconn_oracle.hpp"
#include "biconn/biconn_oracle_impl.hpp"
#include "biconn/biconn_oracle_queries.hpp"
#include "biconn/biconn_oracle_views.hpp"
#include "biconn/tarjan_vishkin.hpp"
#include "biconn/vgraph_biconn.hpp"
#include "connectivity/baseline_parallel_cc.hpp"
#include "connectivity/cc_common.hpp"
#include "connectivity/cc_oracle.hpp"
#include "connectivity/seq_cc.hpp"
#include "connectivity/we_cc.hpp"
#include "decomp/center_set.hpp"
#include "decomp/clusters_graph.hpp"
#include "decomp/implicit_decomp.hpp"
#include "dynamic/batch_query.hpp"
#include "dynamic/biconn_snapshot.hpp"
#include "dynamic/block_merge.hpp"
#include "dynamic/dirty_tracker.hpp"
#include "dynamic/durability.hpp"
#include "dynamic/dynamic_biconnectivity.hpp"
#include "dynamic/dynamic_connectivity.hpp"
#include "dynamic/facade_core.hpp"
#include "dynamic/overlay_graph.hpp"
#include "dynamic/query.hpp"
#include "dynamic/rebuild_planner.hpp"
#include "dynamic/snapshot_store.hpp"
#include "dynamic/update_batch.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/vgraph.hpp"
#include "ldd/ldd.hpp"
#include "ldd/ldd_impl.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/rng.hpp"
#include "parallel/scan.hpp"
#include "parallel/thread_pool.hpp"
#include "persist/crc32.hpp"
#include "persist/derived.hpp"
#include "persist/format.hpp"
#include "persist/history.hpp"
#include "persist/mmap_file.hpp"
#include "persist/recovery.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "primitives/bfs.hpp"
#include "primitives/blocked_lca.hpp"
#include "primitives/euler_tour.hpp"
#include "primitives/lca.hpp"
#include "primitives/small_biconn.hpp"
#include "primitives/union_find.hpp"
#include "service/api.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/socket.hpp"

namespace wecc {

// Instantiate the class template whose body otherwise stays invisible to
// template-blind checks (clang-tidy analyzes uninstantiated templates only
// shallowly). The facades instantiate everything else transitively.
template class amem::asym_array<std::uint32_t>;

// odr-use an entry point so -Wunused diagnostics in the shim itself stay
// meaningful; never called.
[[maybe_unused]] std::size_t tidy_shim_anchor() {
  return parallel::num_threads();
}

}  // namespace wecc
