// BatchQueryEngine: answer query vectors in parallel against one pinned
// view — a connectivity Snapshot (kConnected only) or a BiconnSnapshot
// (every MixedQuery kind). Every answer goes through the one dispatch in
// dynamic/query.hpp, after check_queries has rejected the whole vector if
// any query is out of range or of a kind the view does not answer.
//
// Oracle queries are read-only (rho and the local views run in per-call
// symmetric scratch, the center set and label array are written only at
// build), so a blocked parallel_for over the query vector is race-free.
// Each query stays at the static oracle's cost — O(k) expected reads for
// connectivity, O(k^2) expected operations for biconnectivity — and the
// engine adds no writes beyond its outputs (one per answer or block id).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dynamic/biconn_snapshot.hpp"
#include "dynamic/query.hpp"
#include "dynamic/snapshot_store.hpp"
#include "parallel/parallel_for.hpp"

namespace wecc::dynamic {

namespace detail {
/// The engine's discipline: map fn over [0, count) on the thread pool, one
/// counted write per produced answer.
template <typename T, typename F>
std::vector<T> parallel_map(std::size_t count, std::size_t grain, F&& fn) {
  std::vector<T> out(count);
  parallel::parallel_for(
      0, count,
      [&](std::size_t i) {
        out[i] = fn(i);
        amem::count_write();
      },
      grain);
  return out;
}
}  // namespace detail

/// What a mixed vector returns: `answers[i]` is query i's boolean (0/1);
/// `block_ids` holds one id per kEdgeBcc query, in query order.
struct MixedAnswers {
  std::vector<std::uint8_t> answers;
  std::vector<std::uint64_t> block_ids;
};

template <typename View>
class BatchQueryEngine {
 public:
  /// Pins `view` for the engine's lifetime: answers stay consistent with
  /// that epoch no matter how many batches are published meanwhile.
  explicit BatchQueryEngine(std::shared_ptr<const View> view)
      : view_(std::move(view)) {}

  /// Answers and block ids of a mixed vector in one parallel pass: each
  /// kEdgeBcc query is probed once for both. Grain is low because each
  /// biconnectivity probe already costs O(k^2) expected operations.
  [[nodiscard]] MixedAnswers answer_with_ids(
      std::span<const MixedQuery> queries, std::size_t grain = 16) const {
    return run(queries, grain, true, true);
  }
  /// out[i] is query i's boolean.
  [[nodiscard]] std::vector<std::uint8_t> answer(
      std::span<const MixedQuery> queries, std::size_t grain = 16) const {
    return run(queries, grain, true, false).answers;
  }
  /// Block ids for the kEdgeBcc queries, in query order; other kinds are
  /// skipped unprobed.
  [[nodiscard]] std::vector<std::uint64_t> block_ids(
      std::span<const MixedQuery> queries, std::size_t grain = 16) const {
    return run(queries, grain, false, true).block_ids;
  }

  /// connected(u, v) per pair. Grain is higher because each query costs
  /// only O(k) expected operations.
  [[nodiscard]] std::vector<std::uint8_t> connected(
      std::span<const VertexPair> pairs, std::size_t grain = 64) const {
    std::vector<MixedQuery> queries;
    queries.reserve(pairs.size());
    for (const VertexPair& p : pairs) {
      queries.push_back({MixedQuery::Kind::kConnected, p.u, p.v});
    }
    return answer(queries, grain);
  }

  /// component_of(v) per vertex.
  [[nodiscard]] std::vector<graph::vertex_id> components(
      std::span<const graph::vertex_id> vertices,
      std::size_t grain = 64) const {
    return detail::parallel_map<graph::vertex_id>(
        vertices.size(), grain,
        [&](std::size_t i) { return view_->component_of(vertices[i]); });
  }

 private:
  MixedAnswers run(std::span<const MixedQuery> queries, std::size_t grain,
                   bool with_answers, bool with_ids) const {
    check_queries(*view_, queries);
    constexpr std::size_t kNoId = ~std::size_t{0};
    std::vector<std::size_t> id_slot(with_ids ? queries.size() : 0, kNoId);
    std::size_t ids = 0;
    for (std::size_t i = 0; i < id_slot.size(); ++i) {
      if (queries[i].kind == MixedQuery::Kind::kEdgeBcc) id_slot[i] = ids++;
    }
    MixedAnswers out;
    out.answers.resize(with_answers ? queries.size() : 0);
    out.block_ids.resize(ids);
    parallel::parallel_for(
        0, queries.size(),
        [&](std::size_t i) {
          const bool want_id = with_ids && id_slot[i] != kNoId;
          if (!with_answers && !want_id) return;
          const std::uint64_t got = probe(*view_, queries[i]);
          if (with_answers) {
            out.answers[i] = got != 0 ? 1 : 0;
            amem::count_write();
          }
          if (want_id) {
            out.block_ids[id_slot[i]] = got;
            amem::count_write();
          }
        },
        grain);
    return out;
  }

  std::shared_ptr<const View> view_;
};

/// The biconnectivity engine's name before the engines became one.
using BiconnBatchQueryEngine = BatchQueryEngine<BiconnSnapshot>;

/// One time-travel probe: a MixedQuery pinned to a historical epoch.
/// Answered against on-disk epoch history (persist::EpochHistory), not a
/// pinned in-memory snapshot — the epoch may long predate every snapshot
/// the store still holds.
struct TimeTravelQuery {
  MixedQuery::Kind kind = MixedQuery::Kind::kConnected;
  graph::vertex_id u = 0;
  graph::vertex_id v = 0;
  std::uint64_t epoch = 0;
};

/// Answer a time-travel query vector in parallel. `History` is anything
/// with a thread-safe `answer_at(kind, u, v, epoch)` — persist::
/// EpochHistory in production (templated here so the dynamic layer does
/// not depend on the persistence layer), which answers through the same
/// check_queries + probe as the engine. Grain defaults low: the first
/// probe of a cold epoch pays that epoch's reconstruction.
template <typename History>
[[nodiscard]] std::vector<std::uint8_t> answer_time_travel(
    const History& history, std::span<const TimeTravelQuery> queries,
    std::size_t grain = 4) {
  return detail::parallel_map<std::uint8_t>(
      queries.size(), grain, [&](std::size_t i) {
        const TimeTravelQuery& q = queries[i];
        return history.answer_at(q.kind, q.u, q.v, q.epoch) ? 1 : 0;
      });
}

}  // namespace wecc::dynamic
