// FacadeService: the in-process implementation of the unified service API
// over either batch-dynamic facade. Templating works because both facades
// inherit one surface from FacadeCore: report_type/snapshot_type,
// num_vertices/epoch/store, snapshot()/snapshot_at(), apply()/compact().
// Queries pin a snapshot and run on the pool through the one
// BatchQueryEngine; the snapshot type's supports() says which kinds the
// facade answers. Updates go straight through the facade's serialized
// writer (and through its durability hook, if one is attached).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dynamic/batch_query.hpp"
#include "dynamic/dynamic_biconnectivity.hpp"
#include "dynamic/dynamic_connectivity.hpp"
#include "service/api.hpp"

namespace wecc::service {

namespace detail {

/// Fold either facade's report into the one ApplyResult shape (fields for
/// the other facade stay zero).
inline ApplyResult to_apply_result(const dynamic::UpdateReport& r) {
  ApplyResult out;
  out.report = r;  // slice down to the shared base
  out.dirty_clusters = r.dirty_clusters;
  out.dirty_labels = r.dirty_labels;
  out.relabeled_centers = r.relabeled_centers;
  return out;
}
inline ApplyResult to_apply_result(const dynamic::BiconnUpdateReport& r) {
  ApplyResult out;
  out.report = r;
  out.absorbed_edges = r.absorbed_edges;
  out.patched_bridges = r.patched_bridges;
  out.dirty_components = r.dirty_components;
  out.dirty_clusters = r.dirty_clusters;
  out.merged_blocks = r.merged_blocks;
  out.absorbed_deletions = r.absorbed_deletions;
  out.rebuild_reason = static_cast<std::uint8_t>(r.rebuild_reason);
  out.absorb_rate_ppm = static_cast<std::uint64_t>(r.absorb_rate * 1e6);
  return out;
}

}  // namespace detail

/// The unified API over one facade the caller owns (and must keep alive
/// for the service's lifetime). Thread-safe to the same degree as the
/// facade: query() from any number of threads, apply() serialized by the
/// facade's writer lock.
template <typename Facade>
class FacadeService final : public ServiceHandler {
 public:
  explicit FacadeService(Facade& facade) : facade_(facade) {}

  [[nodiscard]] ServiceInfo info() const override {
    ServiceInfo out;
    out.facade = Facade::snapshot_type::supports(
                     dynamic::MixedQuery::Kind::kBiconnected)
                     ? FacadeKind::kBiconnectivity
                     : FacadeKind::kConnectivity;
    out.num_vertices = facade_.num_vertices();
    out.epoch = facade_.epoch();
    out.snapshot_capacity = facade_.store().capacity();
    return out;
  }

  [[nodiscard]] QueryResponse query(const QueryRequest& req) const override {
    auto snap = req.pin_epoch == kLatestEpoch
                    ? facade_.snapshot()
                    : facade_.snapshot_at(req.pin_epoch);
    if (!snap) return QueryResponse{Status::kEpochGone, 0, {}, {}};
    const std::span<const dynamic::MixedQuery> queries(req.queries);
    const dynamic::QueryFault fault = dynamic::find_fault(*snap, queries);
    if (fault != dynamic::QueryFault::kNone) {
      return QueryResponse{fault == dynamic::QueryFault::kOutOfRange
                               ? Status::kBadRequest
                               : Status::kUnsupported,
                           0, {}, {}};
    }
    const std::uint64_t epoch = snap->epoch();
    dynamic::MixedAnswers got =
        dynamic::BatchQueryEngine(std::move(snap)).answer_with_ids(queries);
    return QueryResponse{Status::kOk, epoch, std::move(got.answers),
                         std::move(got.block_ids)};
  }

  ApplyResult apply(const ApplyRequest& req) override {
    if (req.compact) {
      if (!req.batch.empty()) {
        throw std::invalid_argument("compact request must carry no batch");
      }
      return detail::to_apply_result(facade_.compact());
    }
    return detail::to_apply_result(facade_.apply(req.batch));
  }

 private:
  Facade& facade_;
};

}  // namespace wecc::service
