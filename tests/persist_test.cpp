// Unit tests for the persistence layer: snapshot format round-trips and
// corruption rejection, WAL framing / rotation / torn-tail repair, the
// amem storage channel, SnapshotStore observability, and on-disk epoch
// history (time-travel + epoch-diff queries). Every durable answer is
// cross-checked against sequential Hopcroft–Tarjan ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "amem/counters.hpp"
#include "dynamic/batch_query.hpp"
#include "dynamic/dynamic_biconnectivity.hpp"
#include "dynamic/dynamic_connectivity.hpp"
#include "parallel/rng.hpp"
#include "persist/crc32.hpp"
#include "persist/history.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "persist_test_util.hpp"
#include "test_util.hpp"

namespace {

using namespace wecc;
using dynamic::UpdateBatch;
using graph::Edge;
using graph::EdgeList;
using graph::vertex_id;
using persist::SnapshotKind;
using persist::SnapshotReader;
using persist::SnapshotWriter;
using persist::Wal;
using persist::WalOptions;
using testutil::BruteSurface;
using testutil::ScratchDir;

EdgeList random_edges(std::size_t n, std::size_t m, std::uint64_t seed) {
  parallel::Rng rng(seed);
  EdgeList edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    edges.push_back({vertex_id(rng.next() % n), vertex_id(rng.next() % n)});
  }
  return edges;
}

std::vector<Edge> all_pairs(std::size_t n) {
  std::vector<Edge> pairs;
  for (vertex_id u = 0; u < n; ++u) {
    for (vertex_id v = u; v < n; ++v) pairs.push_back({u, v});
  }
  return pairs;
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(std::streamoff(offset));
  char c;
  f.read(&c, 1);
  c = char(c ^ 0x40);
  f.seekp(std::streamoff(offset));
  f.write(&c, 1);
}

TEST(Crc32, KnownAnswer) {
  // The classic check vector for the reflected 0xEDB88320 polynomial.
  EXPECT_EQ(persist::crc32("123456789", 9), 0xCBF43926u);
  // Chaining two spans equals one pass.
  const std::uint32_t part = persist::crc32("12345", 5);
  EXPECT_EQ(persist::crc32("6789", 4, part), 0xCBF43926u);
}

TEST(SnapshotFormat, FilenamesSortByEpoch) {
  ScratchDir dir;
  const std::size_t n = 10;
  const EdgeList edges = random_edges(n, 12, 1);
  for (const std::uint64_t e : {std::uint64_t{3}, std::uint64_t{1},
                                std::uint64_t{2}}) {
    SnapshotWriter::write(dir.path(), SnapshotKind::kConnectivity, e, n,
                          edges);
  }
  SnapshotWriter::write(dir.path(), SnapshotKind::kBiconnectivity, 5, n,
                        edges);
  const auto found = persist::list_snapshots(dir.path());
  ASSERT_EQ(found.size(), 4u);
  EXPECT_EQ(found[0].epoch, 1u);
  EXPECT_EQ(found[1].epoch, 2u);
  EXPECT_EQ(found[2].epoch, 3u);
  EXPECT_EQ(found[3].epoch, 5u);
  EXPECT_EQ(found[3].kind, SnapshotKind::kBiconnectivity);
}

TEST(SnapshotFormat, BiconnRoundTripMatchesGroundTruth) {
  ScratchDir dir;
  const std::size_t n = 48;
  // Sparse enough to have bridges and articulation points, plus
  // self-loops and parallel edges to exercise the multigraph rules.
  EdgeList edges = random_edges(n, 40, 7);
  edges.push_back({3, 3});
  edges.push_back({5, 9});
  edges.push_back({5, 9});
  const std::string path = SnapshotWriter::write(
      dir.path(), SnapshotKind::kBiconnectivity, 42, n, edges);
  const SnapshotReader reader = SnapshotReader::open(path);
  EXPECT_EQ(reader.epoch(), 42u);
  EXPECT_EQ(reader.kind(), SnapshotKind::kBiconnectivity);
  EXPECT_EQ(reader.num_vertices(), n);
  EXPECT_EQ(reader.num_edges(), edges.size());
  EXPECT_TRUE(reader.view().has_biconn());

  const BruteSurface brute(n, edges);
  testutil::expect_full_surface_eq(reader.view(), brute, all_pairs(n),
                                   "mmap snapshot");
  EXPECT_EQ(testutil::canonical_edges(reader.edge_list()),
            testutil::canonical_edges(edges));
}

TEST(SnapshotFormat, ConnectivityOnlyRoundTrip) {
  ScratchDir dir;
  const std::size_t n = 40;
  const EdgeList edges = random_edges(n, 30, 11);
  const std::string path = SnapshotWriter::write(
      dir.path(), SnapshotKind::kConnectivity, 9, n, edges);
  const SnapshotReader reader = SnapshotReader::open(path);
  EXPECT_EQ(reader.kind(), SnapshotKind::kConnectivity);
  EXPECT_FALSE(reader.view().has_biconn());

  const auto brute =
      testutil::brute_cc(graph::Graph::from_edges(n, edges));
  for (vertex_id u = 0; u < n; ++u) {
    for (vertex_id v = 0; v < n; ++v) {
      EXPECT_EQ(reader.view().connected(u, v), brute[u] == brute[v]);
    }
  }
  EXPECT_TRUE(testutil::same_partition(
      std::vector<std::uint32_t>(reader.view().cc_label.begin(),
                                 reader.view().cc_label.end()),
      brute, n));
  EXPECT_EQ(testutil::canonical_edges(reader.edge_list()),
            testutil::canonical_edges(edges));
}

TEST(SnapshotFormat, RejectsCorruption) {
  ScratchDir dir;
  const std::size_t n = 24;
  const std::string path = SnapshotWriter::write(
      dir.path(), SnapshotKind::kBiconnectivity, 1, n,
      random_edges(n, 30, 13));
  const std::size_t size = std::filesystem::file_size(path);
  ASSERT_NO_THROW(SnapshotReader::open(path));

  // A bit flip anywhere that matters must be caught: header field,
  // section table, section payload, last byte of the file.
  for (const std::size_t offset :
       {std::size_t{8}, std::size_t{70}, size / 2, size - 1}) {
    const std::string copy = dir.path() + "/flipped.wsnp";
    std::filesystem::copy_file(
        path, copy, std::filesystem::copy_options::overwrite_existing);
    flip_byte(copy, offset);
    EXPECT_THROW(SnapshotReader::open(copy), std::runtime_error)
        << "bit flip at offset " << offset << " was not detected";
  }

  // Truncation anywhere must be caught too.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{32}, size - 9}) {
    const std::string copy = dir.path() + "/truncated.wsnp";
    std::filesystem::copy_file(
        path, copy, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(copy, keep);
    EXPECT_THROW(SnapshotReader::open(copy), std::runtime_error)
        << "truncation to " << keep << " bytes was not detected";
  }
}

TEST(WalLog, AppendReplayRoundTrip) {
  ScratchDir dir;
  std::vector<UpdateBatch> batches;
  batches.push_back(UpdateBatch::inserting({{0, 1}, {1, 2}}));
  batches.push_back(UpdateBatch::deleting({{0, 1}}));
  batches.push_back(UpdateBatch{{{2, 3}}, {{1, 2}}});
  batches.push_back(UpdateBatch{});  // a compaction record
  {
    auto wal = Wal::open(dir.path());
    EXPECT_TRUE(wal->empty());
    for (std::size_t i = 0; i < batches.size(); ++i) {
      wal->log_batch(i + 1, batches[i]);
    }
    EXPECT_EQ(wal->last_epoch(), 4u);
  }
  std::vector<std::uint64_t> epochs;
  std::vector<UpdateBatch> got;
  const auto stats = Wal::replay(
      dir.path(), 0, [&](std::uint64_t e, const UpdateBatch& b) {
        epochs.push_back(e);
        got.push_back(b);
      });
  EXPECT_EQ(stats.delivered, 4u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  ASSERT_EQ(got.size(), batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(epochs[i], i + 1);
    EXPECT_EQ(got[i].insertions, batches[i].insertions);
    EXPECT_EQ(got[i].deletions, batches[i].deletions);
  }

  // from_epoch filters an exact prefix.
  const auto tail_stats =
      Wal::replay(dir.path(), 2, [&](std::uint64_t, const UpdateBatch&) {});
  EXPECT_EQ(tail_stats.delivered, 2u);
  EXPECT_EQ(tail_stats.skipped, 2u);

  // Reopening continues the epoch sequence.
  auto wal = Wal::open(dir.path());
  EXPECT_EQ(wal->last_epoch(), 4u);
  EXPECT_EQ(wal->open_stats().records, 4u);
  EXPECT_THROW(wal->log_batch(4, UpdateBatch{}), std::logic_error);
  wal->log_batch(5, UpdateBatch{});
}

TEST(WalLog, RotationSpansSegments) {
  ScratchDir dir;
  WalOptions opt;
  opt.segment_bytes = 64;  // rotate after every record or two
  {
    auto wal = Wal::open(dir.path(), opt);
    for (std::uint64_t e = 1; e <= 10; ++e) {
      wal->log_batch(e, UpdateBatch::inserting({{vertex_id(e), 0}}));
    }
  }
  std::size_t segments = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.path())) {
    segments += entry.path().filename().string().starts_with("wal-");
  }
  EXPECT_GT(segments, 1u);

  std::vector<std::uint64_t> epochs;
  Wal::replay(dir.path(), 0,
              [&](std::uint64_t e, const UpdateBatch&) {
                epochs.push_back(e);
              });
  ASSERT_EQ(epochs.size(), 10u);
  for (std::uint64_t e = 1; e <= 10; ++e) EXPECT_EQ(epochs[e - 1], e);

  // Reopen lands in the last segment and keeps rotating cleanly.
  auto wal = Wal::open(dir.path(), opt);
  EXPECT_EQ(wal->last_epoch(), 10u);
  wal->log_batch(11, UpdateBatch{});
}

TEST(WalLog, TornTailIsTruncatedNeverReplayed) {
  ScratchDir dir;
  {
    auto wal = Wal::open(dir.path());
    for (std::uint64_t e = 1; e <= 3; ++e) {
      wal->log_batch(e, UpdateBatch::inserting({{vertex_id(e), 9}}));
    }
  }
  // Simulate a crash mid-append: cut a few bytes off the last record.
  const std::string seg = dir.path() + "/wal-00000000.log";
  const std::size_t size = std::filesystem::file_size(seg);
  std::filesystem::resize_file(seg, size - 3);

  std::vector<std::uint64_t> epochs;
  const auto stats = Wal::replay(
      dir.path(), 0,
      [&](std::uint64_t e, const UpdateBatch&) {
                epochs.push_back(e);
              });
  EXPECT_EQ(epochs, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_GT(stats.truncated_bytes, 0u);

  // Reopen repairs the tail and appending epoch 3 again works.
  auto wal = Wal::open(dir.path());
  EXPECT_EQ(wal->last_epoch(), 2u);
  EXPECT_GT(wal->open_stats().truncated_bytes, 0u);
  wal->log_batch(3, UpdateBatch{});
}

TEST(WalLog, BitFlippedRecordDropsTail) {
  ScratchDir dir;
  std::uint64_t second_record_offset = 0;
  {
    auto wal = Wal::open(dir.path());
    wal->log_batch(1, UpdateBatch::inserting({{1, 2}, {3, 4}}));
    second_record_offset = std::filesystem::file_size(
        dir.path() + "/wal-00000000.log");
    wal->log_batch(2, UpdateBatch::inserting({{5, 6}}));
    wal->log_batch(3, UpdateBatch::inserting({{7, 8}}));
  }
  // Flip one payload byte of record 2: records 2 AND 3 must be dropped
  // (a record after a corrupt one is unreachable in replay order).
  flip_byte(dir.path() + "/wal-00000000.log", second_record_offset + 25);

  std::vector<std::uint64_t> epochs;
  Wal::replay(dir.path(), 0,
              [&](std::uint64_t e, const UpdateBatch&) {
                epochs.push_back(e);
              });
  EXPECT_EQ(epochs, (std::vector<std::uint64_t>{1}));

  auto wal = Wal::open(dir.path());
  EXPECT_EQ(wal->last_epoch(), 1u);
  EXPECT_GT(wal->open_stats().truncated_bytes, 0u);
}

TEST(WalLog, StorageCountersChargeRealBytes) {
  ScratchDir dir;
  amem::reset_storage();
  const std::size_t n = 16;
  const std::string path = SnapshotWriter::write(
      dir.path(), SnapshotKind::kBiconnectivity, 1, n, random_edges(n, 20, 3));
  const amem::StorageStats after_snap = amem::storage_snapshot();
  EXPECT_EQ(after_snap.bytes_written, std::filesystem::file_size(path));
  EXPECT_EQ(after_snap.appends, 1u);
  EXPECT_EQ(after_snap.fsyncs, 2u);  // file + directory

  auto wal = Wal::open(dir.path());  // segment header + its fsyncs
  const amem::StorageStats after_open = amem::storage_snapshot();
  EXPECT_GT(after_open.bytes_written, after_snap.bytes_written);

  wal->log_batch(1, UpdateBatch::inserting({{0, 1}}));
  const amem::StorageStats after_append = amem::storage_snapshot();
  // Record: 24-byte header + one 8-byte edge + 4-byte CRC, fsync'd.
  EXPECT_EQ(after_append.bytes_written - after_open.bytes_written, 36u);
  EXPECT_EQ(after_append.appends, after_open.appends + 1);
  EXPECT_EQ(after_append.fsyncs, after_open.fsyncs + 1);
}

struct FakeSnap {
  std::uint64_t e;
  [[nodiscard]] std::uint64_t epoch() const noexcept { return e; }
};

TEST(SnapshotStore, NonMonotonePublishThrowsInRelease) {
  dynamic::SnapshotStoreT<FakeSnap> store(4);
  store.publish(std::make_shared<FakeSnap>(FakeSnap{5}));
  EXPECT_THROW(store.publish(std::make_shared<FakeSnap>(FakeSnap{5})),
               std::logic_error);
  EXPECT_THROW(store.publish(std::make_shared<FakeSnap>(FakeSnap{4})),
               std::logic_error);
  store.publish(std::make_shared<FakeSnap>(FakeSnap{6}));
  EXPECT_EQ(store.size(), 2u);  // the failed publishes changed nothing
}

TEST(SnapshotStore, RingStatsTrackEvictionAndPins) {
  dynamic::SnapshotStoreT<FakeSnap> store(2);
  store.publish(std::make_shared<FakeSnap>(FakeSnap{1}));
  store.publish(std::make_shared<FakeSnap>(FakeSnap{2}));
  auto pinned = store.current();  // pin epoch 2 across evictions
  EXPECT_EQ(store.stats().pins_outstanding, 1u);
  store.publish(std::make_shared<FakeSnap>(FakeSnap{3}));  // evicts 1, free
  store.publish(std::make_shared<FakeSnap>(FakeSnap{4}));  // evicts 2, pinned
  const auto stats = store.stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_EQ(stats.published, 4u);
  EXPECT_EQ(stats.evicted, 2u);
  EXPECT_EQ(stats.pinned_evicted, 1u);
  // Epoch 2 left the ring, so its still-live pin no longer counts here.
  EXPECT_EQ(stats.pins_outstanding, 0u);
  EXPECT_EQ(pinned->epoch(), 2u);  // still valid after eviction
  // A copied handle is one pin (the release hook fires with the last copy):
  // pinning epoch 4 twice via copy still reads as a single hand-out, and
  // dropping all copies returns the books to zero.
  auto a = store.at_epoch(4);
  auto b = a;
  EXPECT_EQ(store.stats().pins_outstanding, 1u);
  a.reset();
  b.reset();
  EXPECT_EQ(store.stats().pins_outstanding, 0u);
}

TEST(Durability, FacadeLogsEveryEpochAdvance) {
  ScratchDir dir;
  const std::size_t n = 32;
  dynamic::DynamicConnectivity dc(
      graph::Graph::from_edges(n, random_edges(n, 40, 17)));
  dc.set_durability_log(Wal::open(dir.path()));

  dc.insert_edges({{0, 1}, {2, 3}});            // fast path
  dc.delete_edges({{0, 1}});                    // selective rebuild
  dc.compact();                                 // empty batch record
  EXPECT_EQ(dc.epoch(), 3u);

  std::vector<std::uint64_t> epochs;
  std::vector<UpdateBatch> batches;
  Wal::replay(dir.path(), 0,
              [&](std::uint64_t e, const UpdateBatch& b) {
                epochs.push_back(e);
                batches.push_back(b);
              });
  ASSERT_EQ(epochs, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(batches[0].insertions, (EdgeList{{0, 1}, {2, 3}}));
  EXPECT_EQ(batches[1].deletions, (EdgeList{{0, 1}}));
  EXPECT_TRUE(batches[2].empty());
}

/// Drives a biconnectivity facade through checkpoints and churn, recording
/// every epoch's logical edge list for ground truth.
struct HistoryFixture {
  static constexpr std::size_t kN = 36;
  ScratchDir dir;
  std::vector<EdgeList> edges_at;  // epoch -> logical edge list
  std::uint64_t checkpointed_epoch = 0;

  HistoryFixture() {
    dynamic::DynamicBiconnectivity facade(
        graph::Graph::from_edges(kN, random_edges(kN, 45, 23)));
    persist::checkpoint(dir.path(), facade);  // anchor at epoch 0
    facade.set_durability_log(Wal::open(dir.path()));
    edges_at.push_back(facade.current_edge_list());

    testutil::EdgeSetModel model(kN, edges_at[0]);
    parallel::Rng rng(99);
    for (int step = 1; step <= 8; ++step) {
      UpdateBatch batch;
      if (step % 3 == 0 && !model.edges().empty()) {
        // Deletions force the selective-rebuild path.
        auto it = model.edges().begin();
        std::advance(it, long(rng.next() % model.edges().size()));
        batch.deletions.push_back({it->first.first, it->first.second});
      } else {
        for (int j = 0; j < 3; ++j) {
          batch.insertions.push_back({vertex_id(rng.next() % kN),
                                      vertex_id(rng.next() % kN)});
        }
      }
      for (const Edge& e : batch.deletions) model.remove(e);
      for (const Edge& e : batch.insertions) model.add(e);
      facade.apply(batch);
      edges_at.push_back(facade.current_edge_list());
      if (step == 4) {
        checkpointed_epoch = facade.epoch();
        persist::checkpoint(dir.path(), facade);
      }
    }
  }
};

TEST(EpochHistory, TimeTravelMatchesPerEpochGroundTruth) {
  const HistoryFixture fx;
  const persist::EpochHistory history(fx.dir.path());
  EXPECT_EQ(history.min_epoch(), 0u);
  EXPECT_EQ(history.max_epoch(), fx.edges_at.size() - 1);
  EXPECT_EQ(history.num_vertices(), HistoryFixture::kN);

  // Checkpointed epochs serve off the mapping; others are rebuilt.
  EXPECT_TRUE(history.at(0)->mmap_backed());
  EXPECT_TRUE(history.at(fx.checkpointed_epoch)->mmap_backed());
  EXPECT_FALSE(history.at(1)->mmap_backed());

  const auto pairs = all_pairs(HistoryFixture::kN);
  using Kind = dynamic::MixedQuery::Kind;
  for (std::uint64_t e = 0; e < fx.edges_at.size(); ++e) {
    const BruteSurface brute(HistoryFixture::kN, fx.edges_at[e]);
    for (std::size_t i = 0; i < pairs.size(); i += 7) {  // sampled pairs
      const Edge p = pairs[i];
      EXPECT_EQ(history.answer_at(Kind::kConnected, p.u, p.v, e),
                brute.connected(p.u, p.v));
      EXPECT_EQ(history.answer_at(Kind::kBiconnected, p.u, p.v, e),
                brute.biconnected(p.u, p.v));
      EXPECT_EQ(history.answer_at(Kind::kTwoEdgeConnected, p.u, p.v, e),
                brute.two_edge_connected(p.u, p.v));
      EXPECT_EQ(history.answer_at(Kind::kArticulation, p.u, p.v, e),
                brute.is_articulation(p.u));
      EXPECT_EQ(history.answer_at(Kind::kBridge, p.u, p.v, e),
                brute.is_bridge(p.u, p.v));
    }
  }
}

TEST(EpochHistory, BatchedTimeTravelQueries) {
  const HistoryFixture fx;
  const persist::EpochHistory history(fx.dir.path());
  using Kind = dynamic::MixedQuery::Kind;

  parallel::Rng rng(7);
  std::vector<dynamic::TimeTravelQuery> queries;
  std::vector<std::uint8_t> want;
  for (int i = 0; i < 200; ++i) {
    dynamic::TimeTravelQuery q;
    q.kind = Kind(rng.next() % 5);
    q.u = vertex_id(rng.next() % HistoryFixture::kN);
    q.v = vertex_id(rng.next() % HistoryFixture::kN);
    q.epoch = rng.next() % fx.edges_at.size();
    queries.push_back(q);
    const BruteSurface brute(HistoryFixture::kN, fx.edges_at[q.epoch]);
    bool expect = false;
    switch (q.kind) {
      case Kind::kConnected: expect = brute.connected(q.u, q.v); break;
      case Kind::kBiconnected: expect = brute.biconnected(q.u, q.v); break;
      case Kind::kTwoEdgeConnected:
        expect = brute.two_edge_connected(q.u, q.v);
        break;
      case Kind::kArticulation: expect = brute.is_articulation(q.u); break;
      case Kind::kBridge: expect = brute.is_bridge(q.u, q.v); break;
    }
    want.push_back(expect ? 1 : 0);
  }
  EXPECT_EQ(dynamic::answer_time_travel(history, queries), want);
}

TEST(EpochHistory, BridgesAppearedMatchesBruteDiff) {
  const HistoryFixture fx;
  const persist::EpochHistory history(fx.dir.path());

  const auto brute_bridges = [&](std::uint64_t e) {
    const BruteSurface brute(HistoryFixture::kN, fx.edges_at[e]);
    EdgeList out;
    for (std::size_t i = 0; i < brute.edges().size(); ++i) {
      if (brute.result().is_bridge[i]) out.push_back(brute.edges()[i]);
    }
    out = testutil::canonical_edges(out);
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };

  for (const auto& [e1, e2] : std::vector<std::pair<std::uint64_t,
                                                    std::uint64_t>>{
           {0, fx.edges_at.size() - 1}, {2, 5}, {3, 3}}) {
    const EdgeList b1 = brute_bridges(e1), b2 = brute_bridges(e2);
    EdgeList want;
    std::set_difference(b2.begin(), b2.end(), b1.begin(), b1.end(),
                        std::back_inserter(want),
                        [](const Edge& a, const Edge& b) {
                          return std::make_pair(a.u, a.v) <
                                 std::make_pair(b.u, b.v);
                        });
    EXPECT_EQ(history.bridges_appeared(e1, e2), want)
        << "bridges appeared between epochs " << e1 << " and " << e2;
  }
}

TEST(EpochHistory, OutOfRangeEpochThrows) {
  const HistoryFixture fx;
  const persist::EpochHistory history(fx.dir.path());
  EXPECT_THROW(history.at(history.max_epoch() + 1), std::out_of_range);
}

// A historic kEdgeBcc answer is "edge present and not a self-loop", and its
// ids partition the edges exactly like Hopcroft–Tarjan's blocks.
TEST(EpochHistory, EdgeBccMatchesBruteBlocks) {
  const HistoryFixture fx;
  const persist::EpochHistory history(fx.dir.path());
  using Kind = dynamic::MixedQuery::Kind;
  for (std::uint64_t e = 0; e < fx.edges_at.size(); ++e) {
    const BruteSurface brute(HistoryFixture::kN, fx.edges_at[e]);
    const persist::QueryView& view = history.at(e)->view();
    const EdgeList& edges = brute.edges();
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const Edge a = edges[i];
      const std::uint64_t id = view.edge_block_id(a.u, a.v);
      EXPECT_EQ(id != 0, a.u != a.v);
      EXPECT_EQ(history.answer_at(Kind::kEdgeBcc, a.u, a.v, e), a.u != a.v);
      for (std::size_t j = 0; j < i; ++j) {
        const Edge b = edges[j];
        if (a.u == a.v || b.u == b.v) continue;
        EXPECT_EQ(id == view.edge_block_id(b.u, b.v),
                  brute.result().edge_bcc[i] == brute.result().edge_bcc[j]);
      }
    }
    for (const Edge p : all_pairs(HistoryFixture::kN)) {
      const bool present = std::any_of(
          edges.begin(), edges.end(), [&](const Edge& x) {
            return (x.u == p.u && x.v == p.v) || (x.u == p.v && x.v == p.u);
          });
      EXPECT_EQ(history.answer_at(Kind::kEdgeBcc, p.u, p.v, e),
                present && p.u != p.v);
    }
  }
}

// A connectivity-only history answers kConnected and rejects every
// biconnectivity kind: its views have no biconnectivity sections to read.
TEST(EpochHistory, ConnectivityOnlyHistoryRejectsBiconnKinds) {
  ScratchDir dir;
  (void)SnapshotWriter::write(dir.path(), SnapshotKind::kConnectivity, 0, 4,
                              {{0, 1}, {1, 2}});
  const persist::EpochHistory history(dir.path(), SnapshotKind::kConnectivity);
  using Kind = dynamic::MixedQuery::Kind;
  EXPECT_TRUE(history.answer_at(Kind::kConnected, 0, 2, 0));
  EXPECT_FALSE(history.answer_at(Kind::kConnected, 0, 3, 0));
  for (const Kind kind : {Kind::kBiconnected, Kind::kTwoEdgeConnected,
                          Kind::kArticulation, Kind::kBridge, Kind::kEdgeBcc}) {
    EXPECT_THROW((void)history.answer_at(kind, 0, 1, 0),
                 std::invalid_argument);
  }
  const std::vector<dynamic::TimeTravelQuery> batch{
      {Kind::kConnected, 0, 1, 0}, {Kind::kTwoEdgeConnected, 0, 1, 0}};
  EXPECT_THROW((void)dynamic::answer_time_travel(history, batch),
               std::invalid_argument);
}

// Endpoints outside [0, n) are rejected, except kArticulation's unused v.
TEST(EpochHistory, OutOfRangeEndpointThrows) {
  const HistoryFixture fx;
  const persist::EpochHistory history(fx.dir.path());
  using Kind = dynamic::MixedQuery::Kind;
  const auto n = vertex_id(history.num_vertices());
  EXPECT_THROW((void)history.answer_at(Kind::kConnected, 0, n, 0),
               std::out_of_range);
  EXPECT_THROW((void)history.answer_at(Kind::kBiconnected, n, 0, 1),
               std::out_of_range);
  EXPECT_THROW((void)history.answer_at(Kind::kArticulation, n, 0, 0),
               std::out_of_range);
  EXPECT_NO_THROW((void)history.answer_at(Kind::kArticulation, 0, n + 7, 0));
  const std::vector<dynamic::TimeTravelQuery> batch{
      {Kind::kConnected, 0, 1, 0}, {Kind::kBridge, 0, n, 1}};
  EXPECT_THROW((void)dynamic::answer_time_travel(history, batch),
               std::out_of_range);
}

}  // namespace
