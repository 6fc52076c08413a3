// Epoch-versioned snapshots of the dynamic connectivity structure.
//
//  * LabelPatch — a small persistent union-find over canonical component
//    labels. The insertion fast path merges component labels here in O(B)
//    writes instead of rebuilding anything; a snapshot's answer is the
//    underlying oracle's label filtered through the patch.
//  * Versioned<Oracle> — one built oracle bundled with the frozen overlay
//    graph it reads (the graph must outlive the decomposition, so they
//    travel together); VersionedOracle is the connectivity one.
//  * SnapshotBase / Snapshot — an immutable query view: (epoch, oracle
//    version, patch). Safe for concurrent readers; pin one with a
//    shared_ptr and it stays valid while newer epochs are published and
//    older ones are evicted.
//  * SnapshotStore — a bounded ring of the most recent snapshots.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "connectivity/cc_oracle.hpp"
#include "dynamic/overlay_graph.hpp"
#include "dynamic/query.hpp"

namespace wecc::dynamic {

/// Persistent union-find over component labels (canonical vertex ids, the
/// output space of ConnectivityOracle::component_of). No path compression:
/// instances are copied into immutable snapshots, and chains are at most
/// |patch| long (one hop per merged batch edge), so find stays O(|patch|)
/// worst case and O(1) when the patch is empty.
class LabelPatch {
 public:
  [[nodiscard]] graph::vertex_id find(graph::vertex_id label) const {
    auto it = parent_.find(label);
    while (it != parent_.end()) {
      amem::count_read();
      label = it->second;
      it = parent_.find(label);
    }
    amem::count_read();
    return label;
  }

  /// Merge the classes of labels a and b. The surviving representative
  /// prefers a real-center label over a virtual (component-minimum) one —
  /// `is_center(label)` decides — so that after merges involving real
  /// clusters the class is still named by a center, which is what a
  /// selective rebuild folds back into center-index labels. Ties break to
  /// the minimum id. One counted write. Returns the label now linked under
  /// the winner (kNoVertex when a and b were already one class) — the
  /// label unlink() takes to undo the merge.
  template <typename IsCenter>
  graph::vertex_id unite(graph::vertex_id a, graph::vertex_id b,
                         IsCenter&& is_center) {
    a = find(a);
    b = find(b);
    if (a == b) return graph::kNoVertex;
    const bool ca = is_center(a), cb = is_center(b);
    graph::vertex_id winner;
    if (ca != cb) {
      winner = ca ? a : b;
    } else {
      winner = std::min(a, b);
    }
    const graph::vertex_id loser = (winner == a) ? b : a;
    parent_.emplace(loser, winner);
    amem::count_write();
    return loser;
  }

  /// Undo the unite() that linked `loser`; exact when undos run newest
  /// first (no path compression, so no later operation rewrites the link).
  void unlink(graph::vertex_id loser) { parent_.erase(loser); }

  [[nodiscard]] bool empty() const noexcept { return parent_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return parent_.size(); }
  void clear() noexcept { parent_.clear(); }

  /// Every label the patch mentions (keys and values) — the set a selective
  /// rebuild must treat as dirty.
  template <typename F>
  void for_touched(F&& fn) const {
    for (const auto& [k, v] : parent_) {
      fn(k);
      fn(v);
    }
  }

 private:
  std::unordered_map<graph::vertex_id, graph::vertex_id> parent_;
};

/// One oracle version and the frozen graph it reads (the graph must outlive
/// the decomposition, so they travel together).
template <typename Oracle>
struct Versioned {
  std::shared_ptr<const OverlayGraph> graph;
  Oracle oracle;

  Versioned(std::shared_ptr<const OverlayGraph> g, Oracle&& o)
      : graph(std::move(g)), oracle(std::move(o)) {}
};
using VersionedOracle =
    Versioned<connectivity::ConnectivityOracle<OverlayGraph>>;

/// What every published snapshot holds: its epoch, the oracle version it
/// reads, and the fast-path patch on top. Immutable, so safe for concurrent
/// readers; each facade's snapshot adds its query surface.
template <typename Oracle, typename Patch>
class SnapshotBase {
 public:
  SnapshotBase(std::uint64_t epoch,
               std::shared_ptr<const Versioned<Oracle>> state, Patch patch)
      : epoch_(epoch), state_(std::move(state)), patch_(std::move(patch)) {}

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::size_t num_vertices() const {
    return state_->graph->num_vertices();
  }
  [[nodiscard]] const Oracle& oracle() const noexcept {
    return state_->oracle;
  }
  [[nodiscard]] const Patch& patch() const noexcept { return patch_; }
  [[nodiscard]] const std::shared_ptr<const Versioned<Oracle>>& state()
      const noexcept {
    return state_;
  }

 protected:
  std::uint64_t epoch_;
  std::shared_ptr<const Versioned<Oracle>> state_;
  Patch patch_;
};

/// Immutable point-in-time query view. Query cost matches the static oracle
/// (O(k) expected reads) plus O(|patch|) worst-case patch hops.
class Snapshot
    : public SnapshotBase<connectivity::ConnectivityOracle<OverlayGraph>,
                          LabelPatch> {
 public:
  using SnapshotBase::SnapshotBase;

  /// The connectivity surface answers only kConnected.
  [[nodiscard]] static constexpr bool supports(MixedQuery::Kind k) noexcept {
    return k == MixedQuery::Kind::kConnected;
  }

  /// Canonical component label of v at this epoch.
  [[nodiscard]] graph::vertex_id component_of(graph::vertex_id v) const {
    return patch_.find(state_->oracle.component_of(v));
  }

  [[nodiscard]] bool connected(graph::vertex_id u,
                               graph::vertex_id v) const {
    return component_of(u) == component_of(v);
  }
};

/// Bounded ring of the latest snapshots. publish/current/at_epoch are
/// mutex-guarded (snapshots themselves are immutable, so readers only hold
/// the lock long enough to copy a shared_ptr). Eviction drops the store's
/// reference; pinned snapshots live on until their readers release them.
/// Generic over the snapshot type — the connectivity and biconnectivity
/// facades publish different views through the same ring discipline; SnapT
/// only needs an `epoch()` accessor.
///
/// Pin accounting: every handle handed out by current()/at_epoch() carries
/// a release hook that decrements that snapshot's outstanding-pin counter,
/// so eviction classifies "was a reader still holding this?" from the
/// store's own exact books. (An earlier revision inferred it from
/// shared_ptr::use_count(), which also counts the owning facade's internal
/// references and is explicitly documented as approximate under concurrent
/// use — the TSan race-hunt harness churns pin/unpin against eviction to
/// keep this path honest.)
template <typename SnapT>
class SnapshotStoreT {
 public:
  /// Counters for observability: how the ring has been used since
  /// construction. `pinned_evicted` counts evictions where a reader still
  /// held a handle from current()/at_epoch() (the snapshot lived on outside
  /// the ring) — a sustained nonzero rate is the signal to raise
  /// snapshot_capacity. It is monotone and only ever updated under the
  /// store mutex, at eviction time. `pins_outstanding` is the number of
  /// reader handles currently alive across the whole ring.
  struct RingStats {
    std::size_t size = 0;
    std::size_t capacity = 0;
    std::uint64_t published = 0;
    std::uint64_t evicted = 0;
    std::uint64_t pinned_evicted = 0;
    std::uint64_t pins_outstanding = 0;
  };

  explicit SnapshotStoreT(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Epochs must be published in increasing order: at_epoch binary-searches
  /// the ring on that invariant, and every durability consumer (WAL epoch
  /// framing, snapshot filenames) builds on it. The single serialized
  /// writer guarantees it in correct use; a violation is a logic error in
  /// the caller and is rejected unconditionally — in release builds too —
  /// because publishing out of order would silently corrupt every
  /// at_epoch() answer thereafter.
  void publish(std::shared_ptr<const SnapT> snap) {
    Entry entry{std::move(snap),
                std::make_shared<std::atomic<std::uint64_t>>(0)};
    const std::lock_guard<std::mutex> lock(mu_);
    if (!ring_.empty() && entry.snap->epoch() <= ring_.back().snap->epoch()) {
      throw std::logic_error(
          "SnapshotStore::publish: non-monotone epoch " +
          std::to_string(entry.snap->epoch()) + " after " +
          std::to_string(ring_.back().snap->epoch()));
    }
    ring_.push_back(std::move(entry));
    ++published_;
    while (ring_.size() > capacity_) {
      // Exact handed-out-pin count for the victim, read at the eviction
      // linearization point. A reader releasing concurrently lands either
      // before or after this load — both are valid orderings — and unlike
      // use_count() the counter never sees the ring's own reference.
      if (ring_.front().pins->load(std::memory_order_relaxed) > 0) {
        ++pinned_evicted_;
      }
      ring_.pop_front();
      ++evicted_;
    }
  }

  /// Latest snapshot (never null once the owner published epoch 0).
  [[nodiscard]] std::shared_ptr<const SnapT> current() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return ring_.empty() ? nullptr : pin(ring_.back());
  }

  /// Snapshot at an exact epoch, or null if never published / evicted.
  /// Publishes are monotone (the writer increments the epoch under its
  /// lock), so the ring is sorted by epoch and this is a binary search:
  /// O(log capacity) instead of a linear scan.
  [[nodiscard]] std::shared_ptr<const SnapT> at_epoch(
      std::uint64_t epoch) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::lower_bound(
        ring_.begin(), ring_.end(), epoch,
        [](const Entry& e, std::uint64_t target) {
          return e.snap->epoch() < target;
        });
    if (it == ring_.end() || it->snap->epoch() != epoch) return nullptr;
    return pin(*it);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return ring_.size();
  }
  [[nodiscard]] std::vector<std::uint64_t> epochs() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::uint64_t> out;
    out.reserve(ring_.size());
    for (const auto& e : ring_) out.push_back(e.snap->epoch());
    return out;
  }

  [[nodiscard]] RingStats stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t pins = 0;
    for (const auto& e : ring_) {
      pins += e.pins->load(std::memory_order_relaxed);
    }
    return RingStats{ring_.size(), capacity_,       published_,
                     evicted_,     pinned_evicted_, pins};
  }

 private:
  /// One published snapshot plus its outstanding-pin counter. The counter
  /// is shared with the release hooks of every handle handed out for this
  /// snapshot, so it outlives both the ring entry and the store itself.
  struct Entry {
    std::shared_ptr<const SnapT> snap;
    std::shared_ptr<std::atomic<std::uint64_t>> pins;
  };

  /// Wrap a ring entry's snapshot for hand-out: bump its pin count and
  /// attach a release hook (via the aliasing constructor) that drops it
  /// when the reader's last copy of the handle dies. The hook touches only
  /// the shared atomic — no lock — so releasing a pin can never deadlock,
  /// not even on the bad_alloc path where the handle's construction itself
  /// fails and immediately runs the hook (the increment below is balanced
  /// either way).
  [[nodiscard]] static std::shared_ptr<const SnapT> pin(const Entry& entry) {
    entry.pins->fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<void> holder(
        nullptr, [snap = entry.snap, pins = entry.pins](void*) noexcept {
          pins->fetch_sub(1, std::memory_order_relaxed);
        });
    return std::shared_ptr<const SnapT>(std::move(holder), entry.snap.get());
  }

  mutable std::mutex mu_;
  std::deque<Entry> ring_;
  std::size_t capacity_;
  std::uint64_t published_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t pinned_evicted_ = 0;
};

using SnapshotStore = SnapshotStoreT<Snapshot>;

}  // namespace wecc::dynamic
