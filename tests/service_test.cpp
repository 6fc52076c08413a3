// The unified service API and its wire transport.
//
//  * Protocol: every message type survives an encode/decode round trip;
//    every truncation and every single-bit flip of a valid frame is
//    rejected (the WAL torn-tail discipline, applied to TCP frames).
//  * FacadeService: the in-process transport answers exactly like the
//    facades it fronts, and maps every failure mode (bad endpoint, evicted
//    epoch, unsupported kind, malformed batch) to the right Status.
//  * Loopback end-to-end: a real Server on 127.0.0.1 with real Clients,
//    every answer cross-checked against from-scratch ground truth.
//  * Writer churn vs concurrent readers, sized by WECC_RACE_HUNT_MS so the
//    TSan leg can hunt races through the whole stack (sessions, admission
//    queue, snapshot ring).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "amem/counters.hpp"
#include "dynamic/dynamic_biconnectivity.hpp"
#include "dynamic/dynamic_connectivity.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"
#include "persist/crc32.hpp"
#include "primitives/small_biconn.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "test_util.hpp"

namespace wecc {
namespace {

using dynamic::MixedQuery;
using dynamic::UpdateBatch;
using graph::Edge;
using graph::Graph;
using graph::vertex_id;
using testutil::EdgeSetModel;

// The server and the engines schedule across threads; force a real pool
// even on single-core CI runners (concurrency_test idiom).
const bool g_force_pool = [] {
  parallel::set_num_threads(4);
  return true;
}();

std::chrono::milliseconds race_hunt_budget() {
  if (const char* env = std::getenv("WECC_RACE_HUNT_MS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return std::chrono::milliseconds(v);
  }
  return std::chrono::milliseconds(1500);  // smoke-level churn by default
}

/// Ground truth for mixed queries over one materialized graph (the
/// dynamic_biconn_test Truth idiom).
struct Truth {
  primitives::LocalGraph lg{0};
  primitives::BiconnResult bc;
  std::vector<std::vector<std::uint32_t>> pair_edges;  // flattened n*n

  explicit Truth(const Graph& g) : lg(g.num_vertices()) {
    const std::size_t n = g.num_vertices();
    pair_edges.resize(n * n);
    for (const Edge& e : g.edge_list()) {
      const auto id = lg.add_edge(e.u, e.v);
      if (e.u != e.v) {
        pair_edges[std::size_t(e.u) * n + e.v].push_back(id);
        pair_edges[std::size_t(e.v) * n + e.u].push_back(id);
      }
    }
    bc = primitives::biconnectivity(lg);
  }

  [[nodiscard]] bool answer(const MixedQuery& q) const {
    switch (q.kind) {
      case MixedQuery::Kind::kConnected:
        return bc.cc_label[q.u] == bc.cc_label[q.v];
      case MixedQuery::Kind::kBiconnected:
        return q.u == q.v || bc.same_bcc(lg, q.u, q.v);
      case MixedQuery::Kind::kTwoEdgeConnected:
        return q.u == q.v || (bc.cc_label[q.u] == bc.cc_label[q.v] &&
                              bc.two_edge_connected(q.u, q.v));
      case MixedQuery::Kind::kArticulation:
        return bc.is_artic[q.u] != 0;
      case MixedQuery::Kind::kBridge: {
        if (q.u == q.v) return false;
        const auto& ids =
            pair_edges[std::size_t(q.u) * lg.num_vertices() + q.v];
        for (const auto e : ids) {
          if (bc.is_bridge[e]) return true;
        }
        return false;
      }
      case MixedQuery::Kind::kEdgeBcc:
        // Every present non-self-loop edge belongs to exactly one block.
        return q.u != q.v &&
               !pair_edges[std::size_t(q.u) * lg.num_vertices() + q.v]
                    .empty();
    }
    return false;
  }
};

std::vector<MixedQuery> random_mixed(std::size_t n, std::size_t count,
                                     std::uint64_t seed) {
  std::vector<MixedQuery> out;
  std::uint64_t rs = seed;
  for (std::size_t i = 0; i < count; ++i) {
    rs = parallel::mix64(rs + 1);
    const auto kind = MixedQuery::Kind(rs % 6);
    rs = parallel::mix64(rs);
    const auto u = vertex_id(rs % n);
    rs = parallel::mix64(rs);
    out.push_back({kind, u, vertex_id(rs % n)});
  }
  return out;
}

// ---- protocol ------------------------------------------------------------

service::QueryRequest sample_query_request() {
  service::QueryRequest req;
  req.pin_epoch = 17;
  req.queries = {{MixedQuery::Kind::kConnected, 1, 2},
                 {MixedQuery::Kind::kBridge, 3, 4},
                 {MixedQuery::Kind::kArticulation, 5, 0}};
  return req;
}

TEST(ServiceProtocol, RoundTripsEveryMessageType) {
  service::ServiceInfo info;
  info.facade = service::FacadeKind::kBiconnectivity;
  info.num_vertices = 40000;
  info.epoch = 123;
  info.snapshot_capacity = 8;

  service::QueryResponse query_response;
  query_response.status = service::Status::kOk;
  query_response.epoch = 123;
  query_response.answers = {1, 0, 1, 1};
  query_response.block_ids = {0x4000000000000007ull, 0};

  service::ApplyRequest apply_request;
  apply_request.batch.insertions = {{1, 2}, {3, 4}};
  apply_request.batch.deletions = {{5, 6}};

  service::ApplyResult apply_result;
  apply_result.report.epoch = 124;
  apply_result.report.path =
      dynamic::UpdateReportBase::Path::kSelectiveRebuild;
  apply_result.report.reads = 1000;
  apply_result.report.writes = 50;
  apply_result.report.micros = 777;
  apply_result.dirty_components = 3;
  apply_result.relabeled_centers = 9;
  apply_result.merged_blocks = 5;
  apply_result.absorbed_deletions = 2;
  apply_result.rebuild_reason =
      std::uint8_t(dynamic::RebuildReason::kTriageFailed);
  apply_result.absorb_rate_ppm = 912345;

  service::wire::WireError error;
  error.status = service::Status::kBadRequest;
  error.message = "deleted edge (7, 8) not present";

  const std::vector<service::wire::Message> messages = {
      info,         sample_query_request(), query_response,
      apply_request, apply_result,          error};
  for (const service::wire::Message& msg : messages) {
    const auto frame = service::wire::encode(msg);
    const service::wire::Message back = service::wire::decode(frame);
    ASSERT_EQ(back.index(), msg.index());
  }

  const auto back = service::wire::decode(
      service::wire::encode(sample_query_request()));
  const auto& req = std::get<service::QueryRequest>(back);
  EXPECT_EQ(req.pin_epoch, 17u);
  ASSERT_EQ(req.queries.size(), 3u);
  EXPECT_EQ(req.queries[1].kind, MixedQuery::Kind::kBridge);
  EXPECT_EQ(req.queries[1].u, 3u);
  EXPECT_EQ(req.queries[1].v, 4u);

  const auto back2 = service::wire::decode(service::wire::encode(
      service::wire::Message(apply_result)));
  const auto& res = std::get<service::ApplyResult>(back2);
  EXPECT_EQ(res.report.epoch, 124u);
  EXPECT_EQ(res.report.path,
            dynamic::UpdateReportBase::Path::kSelectiveRebuild);
  EXPECT_EQ(res.report.micros, 777u);
  EXPECT_EQ(res.dirty_components, 3u);
  EXPECT_EQ(res.relabeled_centers, 9u);
  EXPECT_EQ(res.merged_blocks, 5u);
  EXPECT_EQ(res.absorbed_deletions, 2u);
  EXPECT_EQ(res.rebuild_reason,
            std::uint8_t(dynamic::RebuildReason::kTriageFailed));
  EXPECT_EQ(res.absorb_rate_ppm, 912345u);

  const auto back3 = service::wire::decode(service::wire::encode(
      service::wire::Message(query_response)));
  EXPECT_EQ(std::get<service::QueryResponse>(back3).block_ids,
            query_response.block_ids);

  // An out-of-range rebuild reason is a protocol error, not a silent enum.
  apply_result.rebuild_reason = 200;
  EXPECT_THROW((void)service::wire::decode(service::wire::encode(
                   service::wire::Message(apply_result))),
               service::wire::ProtocolError);
}

TEST(ServiceProtocol, RejectsEveryTruncation) {
  const auto frame =
      service::wire::encode(service::wire::Message(sample_query_request()));
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_THROW(
        (void)service::wire::decode(
            std::span<const std::uint8_t>(frame.data(), len)),
        service::wire::ProtocolError)
        << "prefix of " << len << " bytes accepted";
  }
}

TEST(ServiceProtocol, RejectsEverySingleBitFlip) {
  const auto frame =
      service::wire::encode(service::wire::Message(sample_query_request()));
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupt = frame;
      corrupt[byte] ^= std::uint8_t(1u << bit);
      EXPECT_THROW((void)service::wire::decode(corrupt),
                   service::wire::ProtocolError)
          << "flip of byte " << byte << " bit " << bit << " accepted";
    }
  }
}

TEST(ServiceProtocol, RejectsTrailingBytesAndBadEnums) {
  // A frame whose header/CRC are consistent but whose payload carries an
  // extra byte must still be rejected (decode checks payload shape, not
  // just the checksum).
  auto frame =
      service::wire::encode(service::wire::Message(sample_query_request()));
  frame.push_back(0);
  frame[8] = std::uint8_t(frame[8] + 1);  // payload_len += 1 (LE low byte)
  // Recompute the CRC the way encode does, so only the shape is wrong.
  std::uint32_t crc = persist::crc32(frame.data(), 12);
  crc = persist::crc32(frame.data() + service::wire::kHeaderBytes,
                       frame.size() - service::wire::kHeaderBytes, crc);
  for (int i = 0; i < 4; ++i) {
    frame[12 + i] = std::uint8_t(crc >> (8 * i));
  }
  EXPECT_THROW((void)service::wire::decode(frame),
               service::wire::ProtocolError);

  // An unknown query kind with a valid CRC is a protocol error too.
  service::QueryRequest req;
  req.queries = {{MixedQuery::Kind::kConnected, 0, 1}};
  auto frame2 = service::wire::encode(service::wire::Message(req));
  frame2[service::wire::kHeaderBytes + 12] = 99;  // the kind byte
  std::uint32_t crc2 = persist::crc32(frame2.data(), 12);
  crc2 = persist::crc32(frame2.data() + service::wire::kHeaderBytes,
                        frame2.size() - service::wire::kHeaderBytes, crc2);
  for (int i = 0; i < 4; ++i) {
    frame2[12 + i] = std::uint8_t(crc2 >> (8 * i));
  }
  EXPECT_THROW((void)service::wire::decode(frame2),
               service::wire::ProtocolError);
}

// ---- FacadeService (in-process transport) --------------------------------

TEST(FacadeService, ConnectivityAnswersAndStatuses) {
  const Graph g = graph::gen::percolation_grid(8, 8, 0.6, 3);
  dynamic::DynamicOptions opt;
  opt.oracle.k = 3;
  opt.snapshot_capacity = 2;
  dynamic::DynamicConnectivity dc(g, opt);
  service::FacadeService<dynamic::DynamicConnectivity> svc(dc);

  EXPECT_EQ(svc.info().facade, service::FacadeKind::kConnectivity);
  EXPECT_EQ(svc.info().num_vertices, 64u);

  // Correctness against brute-force labels, via the service types only.
  EdgeSetModel model(64, g.edge_list());
  service::ApplyRequest apply;
  apply.batch.insertions = {{0, 63}, {1, 62}};
  const service::ApplyResult applied = svc.apply(apply);
  EXPECT_EQ(applied.report.epoch, 1u);
  for (const Edge& e : apply.batch.insertions) model.add(e);

  const auto labels = testutil::brute_cc(model.materialize());
  service::QueryRequest req;
  std::uint64_t rs = 5;
  for (int i = 0; i < 500; ++i) {
    rs = parallel::mix64(rs + 1);
    const auto u = vertex_id(rs % 64);
    rs = parallel::mix64(rs);
    req.queries.push_back(
        {MixedQuery::Kind::kConnected, u, vertex_id(rs % 64)});
  }
  const service::QueryResponse resp = svc.query(req);
  ASSERT_EQ(resp.status, service::Status::kOk);
  EXPECT_EQ(resp.epoch, 1u);
  for (std::size_t i = 0; i < req.queries.size(); ++i) {
    EXPECT_EQ(resp.answers[i] != 0,
              labels[req.queries[i].u] == labels[req.queries[i].v])
        << "query " << i;
  }

  // kUnsupported: the connectivity facade cannot answer biconnectivity —
  // nor edge block ids.
  service::QueryRequest biconn_req;
  biconn_req.queries = {{MixedQuery::Kind::kBiconnected, 0, 1}};
  EXPECT_EQ(svc.query(biconn_req).status, service::Status::kUnsupported);
  service::QueryRequest bcc_req;
  bcc_req.queries = {{MixedQuery::Kind::kEdgeBcc, 0, 1}};
  EXPECT_EQ(svc.query(bcc_req).status, service::Status::kUnsupported);

  // kBadRequest: endpoint out of [0, n) — except kArticulation's unused v.
  service::QueryRequest oob;
  oob.queries = {{MixedQuery::Kind::kConnected, 0, 64}};
  EXPECT_EQ(svc.query(oob).status, service::Status::kBadRequest);
  service::QueryRequest artic;
  artic.queries = {{MixedQuery::Kind::kArticulation, 0, 9999}};
  // Bounds are checked before kind support, so kUnsupported (not
  // kBadRequest) proves kArticulation's unused v is exempt from bounds.
  EXPECT_EQ(svc.query(artic).status, service::Status::kUnsupported);

  // kEpochGone: advance past the 2-deep ring, then pin epoch 0.
  (void)svc.apply(service::ApplyRequest{false, UpdateBatch::inserting(
                                                   {{2, 61}})});
  (void)svc.apply(service::ApplyRequest{false, UpdateBatch::inserting(
                                                   {{3, 60}})});
  service::QueryRequest gone;
  gone.pin_epoch = 0;
  gone.queries = {{MixedQuery::Kind::kConnected, 0, 1}};
  EXPECT_EQ(svc.query(gone).status, service::Status::kEpochGone);

  // A compact request advances the epoch without carrying a batch…
  service::ApplyRequest compact;
  compact.compact = true;
  const service::ApplyResult compacted = svc.apply(compact);
  EXPECT_EQ(compacted.report.path,
            dynamic::UpdateReportBase::Path::kCompaction);
  // …and a compact request with a batch is malformed.
  compact.batch.insertions = {{4, 5}};
  EXPECT_THROW((void)svc.apply(compact), std::invalid_argument);

  // Malformed batches surface the facade's validation exceptions.
  service::ApplyRequest bad;
  bad.batch.insertions = {{0, 9999}};
  EXPECT_THROW((void)svc.apply(bad), std::out_of_range);
}

// ---- loopback end-to-end -------------------------------------------------

TEST(ServiceLoopback, EndToEndCrossChecked) {
  const Graph g = graph::gen::percolation_grid(7, 7, 0.55, 11);
  const std::size_t n = g.num_vertices();
  dynamic::DynamicBiconnOptions opt;
  opt.oracle.k = 3;
  dynamic::DynamicBiconnectivity dbc(g, opt);
  service::FacadeService<dynamic::DynamicBiconnectivity> handler(dbc);
  service::Server server(handler);

  service::Client client =
      service::Client::connect("127.0.0.1", server.port());
  EXPECT_EQ(client.info().facade, service::FacadeKind::kBiconnectivity);
  EXPECT_EQ(client.info().num_vertices, n);

  EdgeSetModel model(n, g.edge_list());
  std::uint64_t rs = 77;
  graph::EdgeList inserted;
  for (int round = 1; round <= 6; ++round) {
    service::ApplyRequest apply;
    for (int i = 0; i < 8; ++i) {
      rs = parallel::mix64(rs + 1);
      const auto u = vertex_id(rs % n);
      rs = parallel::mix64(rs);
      const auto v = vertex_id(rs % n);
      if (u == v) continue;
      apply.batch.insertions.push_back({u, v});
    }
    if (round % 2 == 0) {
      for (int i = 0; i < 3 && !inserted.empty(); ++i) {
        apply.batch.deletions.push_back(inserted.back());
        inserted.pop_back();
      }
    }
    const service::ApplyResult applied = client.apply(apply);
    EXPECT_EQ(applied.report.epoch, std::uint64_t(round));
    for (const Edge& e : apply.batch.deletions) model.remove(e);
    for (const Edge& e : apply.batch.insertions) {
      model.add(e);
      inserted.push_back(e);
    }

    // Every answer this epoch cross-checks against from-scratch truth.
    const Truth truth(model.materialize());
    service::QueryRequest req;
    req.pin_epoch = applied.report.epoch;
    req.queries = random_mixed(n, 200, rs);
    const service::QueryResponse resp = client.query(req);
    ASSERT_EQ(resp.status, service::Status::kOk);
    ASSERT_EQ(resp.epoch, applied.report.epoch);
    ASSERT_EQ(resp.answers.size(), req.queries.size());
    for (std::size_t i = 0; i < req.queries.size(); ++i) {
      ASSERT_EQ(resp.answers[i] != 0, truth.answer(req.queries[i]))
          << "epoch " << resp.epoch << " query " << i;
    }
    // Block ids ride the response, one per kEdgeBcc query in order:
    // nonzero exactly for present non-self-loop edges.
    std::size_t bix = 0;
    for (std::size_t i = 0; i < req.queries.size(); ++i) {
      const MixedQuery& q = req.queries[i];
      if (q.kind != MixedQuery::Kind::kEdgeBcc) continue;
      ASSERT_LT(bix, resp.block_ids.size());
      ASSERT_EQ(resp.block_ids[bix] != 0, truth.answer(q))
          << "epoch " << resp.epoch << " block id for query " << i;
      ++bix;
    }
    ASSERT_EQ(bix, resp.block_ids.size());
  }

  // A bad apply comes back as ServiceError — and the session survives it.
  service::ApplyRequest bad;
  // Over-delete: more copies of (0, 1) than the whole run could possibly
  // have made present (base holds at most 1, the loop inserted 48 edges).
  bad.batch.deletions.assign(64, Edge{0, 1});
  bool rejected = false;
  try {
    (void)client.apply(bad);
  } catch (const service::ServiceError& e) {
    rejected = true;
    EXPECT_EQ(e.status(), service::Status::kBadRequest);
  }
  EXPECT_TRUE(rejected);
  service::QueryRequest still_alive;
  still_alive.queries = {{MixedQuery::Kind::kConnected, 0, 1}};
  EXPECT_EQ(client.query(still_alive).status, service::Status::kOk);

  client.close();
  server.stop();
  EXPECT_GE(server.stats().applies, 6u);
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

// A selective rebuild's per-facade counters reach ApplyResult unchanged,
// in process and over the wire: the biconnectivity facade's dirty-cluster
// count against a twin facade that applied the same batch directly.
TEST(ServiceApplyResult, CarriesBiconnDirtyClusters) {
  const Graph g = graph::gen::percolation_grid(10, 10, 0.7, 5);
  dynamic::DynamicBiconnOptions opt;
  opt.oracle.k = 3;
  opt.merge_search_limit = 0;  // no deletion triage: deletions rebuild
  const Edge victim = g.edge_list().front();
  const service::ApplyRequest req{false, UpdateBatch::deleting({victim})};

  dynamic::DynamicBiconnectivity twin(g, opt);
  const dynamic::BiconnUpdateReport want = twin.apply(req.batch);
  ASSERT_EQ(want.path, dynamic::UpdateReportBase::Path::kSelectiveRebuild);
  ASSERT_GT(want.dirty_clusters, 0u);

  dynamic::DynamicBiconnectivity local(g, opt);
  service::FacadeService<dynamic::DynamicBiconnectivity> svc(local);
  const service::ApplyResult in_process = svc.apply(req);
  EXPECT_EQ(in_process.report.path, want.path);
  EXPECT_EQ(in_process.dirty_clusters, want.dirty_clusters);
  EXPECT_EQ(in_process.dirty_components, want.dirty_components);

  dynamic::DynamicBiconnectivity remote(g, opt);
  service::FacadeService<dynamic::DynamicBiconnectivity> handler(remote);
  service::Server server(handler);
  service::Client client =
      service::Client::connect("127.0.0.1", server.port());
  const service::ApplyResult over_wire = client.apply(req);
  EXPECT_EQ(over_wire.report.path, want.path);
  EXPECT_EQ(over_wire.dirty_clusters, want.dirty_clusters);
  EXPECT_EQ(over_wire.dirty_components, want.dirty_components);
  client.close();
  server.stop();
}

// One parallel pass fills answers and block ids: a kEdgeBcc query costs
// exactly one edge_block_id probe, and its boolean is `id != 0`.
TEST(FacadeService, EdgeBccProbesEachQueryOnce) {
  const Graph g = graph::gen::percolation_grid(8, 8, 0.6, 11);
  dynamic::DynamicBiconnOptions opt;
  opt.oracle.k = 3;
  dynamic::DynamicBiconnectivity dbc(g, opt);
  dbc.insert_edges({{0, 63}, {5, 40}});  // patch-inserted edges answer too
  const service::FacadeService<dynamic::DynamicBiconnectivity> svc(dbc);

  service::QueryRequest req;
  for (const Edge& e : g.edge_list()) {
    req.queries.push_back({MixedQuery::Kind::kEdgeBcc, e.u, e.v});
  }
  req.queries.push_back({MixedQuery::Kind::kEdgeBcc, 0, 63});
  req.queries.push_back({MixedQuery::Kind::kEdgeBcc, 5, 40});
  req.queries.push_back({MixedQuery::Kind::kEdgeBcc, 7, 7});   // self-loop
  req.queries.push_back({MixedQuery::Kind::kEdgeBcc, 0, 62});  // absent

  const auto snap = dbc.snapshot();
  std::vector<std::uint64_t> want;
  const amem::Stats p0 = amem::snapshot();
  for (const MixedQuery& q : req.queries) {
    want.push_back(snap->edge_block_id(q.u, q.v));
  }
  const std::uint64_t one_probe_each = (amem::snapshot() - p0).reads;

  const amem::Stats q0 = amem::snapshot();
  const service::QueryResponse resp = svc.query(req);
  const std::uint64_t served = (amem::snapshot() - q0).reads;
  ASSERT_EQ(resp.status, service::Status::kOk);
  EXPECT_EQ(served, one_probe_each);
  EXPECT_EQ(resp.block_ids, want);
  ASSERT_EQ(resp.answers.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(resp.answers[i], want[i] != 0 ? 1 : 0) << i;
  }
  EXPECT_NE(want[want.size() - 4], 0u);
  EXPECT_EQ(want[want.size() - 2], 0u);
  EXPECT_EQ(want.back(), 0u);
}

// ---- writer churn vs concurrent readers (TSan leg) -----------------------

TEST(ServiceLoopback, WriterChurnVsConcurrentReaders) {
  const Graph g = graph::gen::percolation_grid(6, 6, 0.6, 19);
  const std::size_t n = g.num_vertices();
  dynamic::DynamicBiconnOptions opt;
  opt.oracle.k = 3;
  opt.snapshot_capacity = 4;
  dynamic::DynamicBiconnectivity dbc(g, opt);
  service::FacadeService<dynamic::DynamicBiconnectivity> handler(dbc);
  service::Server server(handler);

  const auto deadline = std::chrono::steady_clock::now() +
                        race_hunt_budget();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      service::Client client =
          service::Client::connect("127.0.0.1", server.port());
      std::uint64_t rs = 1000 + std::uint64_t(r);
      while (!stop.load(std::memory_order_acquire)) {
        service::QueryRequest req;
        req.queries = random_mixed(n, 32, rs);
        rs = parallel::mix64(rs);
        const service::QueryResponse resp = client.query(req);
        ASSERT_EQ(resp.status, service::Status::kOk);
        answered.fetch_add(resp.answers.size(),
                           std::memory_order_relaxed);
        // Sometimes re-pin the epoch that just answered: exercises
        // at_epoch against concurrent publishes and (harmlessly) races
        // eviction — kEpochGone is a legal answer, wrong bits are not.
        if (rs % 4 == 0) {
          service::QueryRequest pinned;
          pinned.pin_epoch = resp.epoch;
          pinned.queries = req.queries;
          const service::QueryResponse again = client.query(pinned);
          ASSERT_TRUE(again.status == service::Status::kOk ||
                      again.status == service::Status::kEpochGone);
          if (again.status == service::Status::kOk &&
              again.epoch == resp.epoch) {
            ASSERT_EQ(again.answers, resp.answers);
          }
        }
      }
    });
  }

  // The churn writer: this thread, through its own session.
  service::Client writer =
      service::Client::connect("127.0.0.1", server.port());
  std::uint64_t rs = 424242;
  std::uint64_t epochs = 0;
  graph::EdgeList inserted;
  while (std::chrono::steady_clock::now() < deadline) {
    service::ApplyRequest apply;
    for (int i = 0; i < 6; ++i) {
      rs = parallel::mix64(rs + 1);
      const auto u = vertex_id(rs % n);
      rs = parallel::mix64(rs);
      const auto v = vertex_id(rs % n);
      if (u != v) apply.batch.insertions.push_back({u, v});
    }
    if (epochs % 3 == 2) {
      for (int i = 0; i < 4 && !inserted.empty(); ++i) {
        apply.batch.deletions.push_back(inserted.back());
        inserted.pop_back();
      }
    }
    if (apply.batch.empty()) continue;
    const service::ApplyResult applied = writer.apply(apply);
    EXPECT_EQ(applied.report.epoch, epochs + 1);
    for (const Edge& e : apply.batch.insertions) inserted.push_back(e);
    ++epochs;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  writer.close();
  server.stop();

  EXPECT_GT(epochs, 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

}  // namespace
}  // namespace wecc
