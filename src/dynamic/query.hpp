// The query vocabulary and its one dispatch. A query is a read-only probe
// of a pinned view: the live Snapshot / BiconnSnapshot or an epoch of
// persist::EpochHistory. Every view states which kinds it answers with
// `supports(kind)`; `check_queries` rejects what a view cannot answer and
// `probe` answers the rest, so every query surface shares one switch.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>

#include "graph/graph.hpp"

namespace wecc::dynamic {

/// One (u, v) connectivity query.
struct VertexPair {
  graph::vertex_id u = 0;
  graph::vertex_id v = 0;
};

/// One probe of a mixed batch: what to ask and of whom. `v` is ignored by
/// kArticulation.
struct MixedQuery {
  enum class Kind : std::uint8_t {
    kConnected,
    kBiconnected,
    kTwoEdgeConnected,
    kArticulation,
    kBridge,
    /// Block (BCC) membership of edge (u, v): boolean answer "edge (u, v)
    /// exists and belongs to a block"; probe() yields the block id itself
    /// (0 = absent edge / self-loop).
    kEdgeBcc,
  };
  Kind kind = Kind::kConnected;
  graph::vertex_id u = 0;
  graph::vertex_id v = 0;
};

/// Why a view cannot answer a query vector. Endpoints are checked before
/// kinds: a vector with both faults is out of range.
enum class QueryFault : std::uint8_t { kNone, kOutOfRange, kUnsupported };

template <typename View>
[[nodiscard]] QueryFault find_fault(const View& view,
                                    std::span<const MixedQuery> queries) {
  const std::size_t n = view.num_vertices();
  QueryFault fault = QueryFault::kNone;
  for (const MixedQuery& q : queries) {
    // kArticulation probes only u; v is ignored and may be anything.
    const bool v_used = q.kind != MixedQuery::Kind::kArticulation;
    if (q.u >= n || (v_used && q.v >= n)) return QueryFault::kOutOfRange;
    if (!view.supports(q.kind)) fault = QueryFault::kUnsupported;
  }
  return fault;
}

/// Throws std::out_of_range for an endpoint outside [0, n) and
/// std::invalid_argument for a kind the view does not answer.
template <typename View>
void check_queries(const View& view, std::span<const MixedQuery> queries) {
  const QueryFault fault = find_fault(view, queries);
  if (fault == QueryFault::kOutOfRange) {
    throw std::out_of_range("query endpoint outside [0, n)");
  }
  if (fault == QueryFault::kUnsupported) {
    throw std::invalid_argument("query kind not answered by this view");
  }
}

/// Answer one checked query: the boolean as 0/1, except kEdgeBcc, which
/// yields the block id itself (nonzero iff the boolean is true).
template <typename View>
[[nodiscard]] std::uint64_t probe(const View& view, const MixedQuery& q) {
  using Kind = MixedQuery::Kind;
  if constexpr (!requires { view.biconnected(q.u, q.v); }) {
    return view.connected(q.u, q.v) ? 1 : 0;  // supports only kConnected
  } else {
    switch (q.kind) {
      case Kind::kConnected: return view.connected(q.u, q.v) ? 1 : 0;
      case Kind::kBiconnected: return view.biconnected(q.u, q.v) ? 1 : 0;
      case Kind::kTwoEdgeConnected:
        return view.two_edge_connected(q.u, q.v) ? 1 : 0;
      case Kind::kArticulation: return view.is_articulation(q.u) ? 1 : 0;
      case Kind::kBridge: return view.is_bridge(q.u, q.v) ? 1 : 0;
      case Kind::kEdgeBcc: return view.edge_block_id(q.u, q.v);
    }
    return 0;
  }
}

}  // namespace wecc::dynamic
