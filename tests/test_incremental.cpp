// Tests for incremental query maintenance (PR 10): the session's net
// edge-delta accumulator, the per-algorithm AlgorithmSpec::refresh hooks
// (warm-start == from-scratch, the central contract), and the serving
// layer's refresh-on-publish cache path — equivalence across system
// models and across a re-permuting publish, a perm-bound entry opened by
// a miss after a delta-free publish, refresh following reads, the
// fan-out matching serial hooks, the delta-size fallback, and the whole
// path under injected faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/query.hpp"
#include "algorithms/registry.hpp"
#include "framework/engine.hpp"
#include "gen/powerlaw.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "graph/permute.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/graph_service.hpp"
#include "serve/service_error.hpp"
#include "serve/snapshot_store.hpp"
#include "stream/session.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/prng.hpp"

namespace vebo {
namespace {

using algo::EdgeDelta;
using algo::PayloadKind;
using algo::QueryParams;
using algo::QueryPayload;
using serve::GraphService;
using serve::GraphServiceOptions;
using serve::Query;
using serve::QueryResult;
using serve::ResultKind;
using serve::SnapshotStore;
using stream::EdgeUpdate;
using stream::StreamSession;

using ArcSet = std::set<std::pair<VertexId, VertexId>>;

std::vector<EdgeUpdate> random_batch(Xoshiro256& rng, VertexId n,
                                     std::size_t count,
                                     int remove_one_in = 8) {
  std::vector<EdgeUpdate> b;
  b.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto s = static_cast<VertexId>(rng.next_below(n));
    const auto d = static_cast<VertexId>(rng.next_below(n));
    b.push_back(rng.next_below(static_cast<std::uint64_t>(remove_one_in)) == 0
                    ? EdgeUpdate::remove(s, d)
                    : EdgeUpdate::insert(s, d));
  }
  return b;
}

ArcSet arcs_of(const Graph& g) {
  ArcSet out;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (const VertexId w : g.out_neighbors(v)) out.insert({v, w});
  return out;
}

// ------------------------------------------------- net-delta accumulator

TEST(NetDelta, AccumulatesSortedAndDrainsOnce) {
  StreamSession session(gen::rmat(7, 4, 11));
  const ArcSet base = arcs_of(session.delta().snapshot());
  // Two arcs guaranteed new, one guaranteed existing (removed).
  ArcSet fresh;
  for (VertexId s = 0; fresh.size() < 2; ++s)
    for (VertexId d = 0; d < 8 && fresh.size() < 2; ++d)
      if (s != d && !base.count({s, d})) fresh.insert({s, d});
  const auto [rs, rd] = *base.begin();

  std::vector<EdgeUpdate> batch;
  for (const auto& [s, d] : fresh) batch.push_back(EdgeUpdate::insert(s, d));
  batch.push_back(EdgeUpdate::remove(rs, rd));
  session.apply(batch);

  EXPECT_EQ(session.pending_delta_edges(), 3u);
  const EdgeDelta delta = session.drain_delta();
  ASSERT_EQ(delta.inserted.size(), 2u);
  ASSERT_EQ(delta.removed.size(), 1u);
  EXPECT_EQ(delta.removed[0].src, rs);
  EXPECT_EQ(delta.removed[0].dst, rd);
  ArcSet got;
  for (const Edge& e : delta.inserted) got.insert({e.src, e.dst});
  EXPECT_EQ(got, fresh);
  // Sorted by (src, dst).
  for (std::size_t i = 1; i < delta.inserted.size(); ++i) {
    const Edge &a = delta.inserted[i - 1], &b = delta.inserted[i];
    EXPECT_LT(std::make_pair(a.src, a.dst), std::make_pair(b.src, b.dst));
  }
  // Drain resets; a second drain is empty.
  EXPECT_EQ(session.pending_delta_edges(), 0u);
  EXPECT_TRUE(session.drain_delta().empty());
}

TEST(NetDelta, InsertRemoveInsertNetsAcrossBatches) {
  StreamSession session(gen::rmat(7, 4, 12));
  const ArcSet base = arcs_of(session.delta().snapshot());
  std::pair<VertexId, VertexId> e{0, 0};
  while (base.count(e) || e.first == e.second) ++e.second;
  const auto [s, d] = e;

  // insert -> remove nets to nothing, even split across batches.
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::insert(s, d)});
  EXPECT_EQ(session.pending_delta_edges(), 1u);
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::remove(s, d)});
  EXPECT_EQ(session.pending_delta_edges(), 0u);

  // insert -> remove -> insert nets to ONE insert (set semantics, not a
  // replay of three events).
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::insert(s, d)});
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::remove(s, d)});
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::insert(s, d)});
  EXPECT_EQ(session.pending_delta_edges(), 1u);
  const EdgeDelta delta = session.drain_delta();
  ASSERT_EQ(delta.inserted.size(), 1u);
  EXPECT_TRUE(delta.removed.empty());
  EXPECT_EQ(delta.inserted[0].src, s);
  EXPECT_EQ(delta.inserted[0].dst, d);

  // Within one batch, last-update-wins collapses before the accumulator
  // ever sees an effect: insert+remove of a (still-)dead arc is a no-op.
  std::pair<VertexId, VertexId> e2 = e;
  do {
    ++e2.second;
  } while (base.count(e2) || e2.first == e2.second);
  session.apply(std::vector<EdgeUpdate>{
      EdgeUpdate::insert(e2.first, e2.second),
      EdgeUpdate::remove(e2.first, e2.second)});
  EXPECT_EQ(session.pending_delta_edges(), 0u);
}

TEST(NetDelta, NoopsLeaveNoTrace) {
  StreamSession session(gen::rmat(7, 4, 13));
  const ArcSet base = arcs_of(session.delta().snapshot());
  const auto [s, d] = *base.begin();
  std::pair<VertexId, VertexId> dead{0, 0};
  while (base.count(dead)) ++dead.second;
  // Re-inserting a live arc and removing a dead one change nothing.
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::insert(s, d)});
  EXPECT_EQ(session.pending_delta_edges(), 0u);
  session.apply(std::vector<EdgeUpdate>{
      EdgeUpdate::remove(dead.first, dead.second)});
  EXPECT_EQ(session.pending_delta_edges(), 0u);
}

// ------------------------------------- spec-level refresh == from-scratch
//
// Identity permutation, one engine per graph version: the hook contract
// in isolation, before the serving layer's translation machinery is
// involved. CC/BFS/BF are bit-exact; PR/PRD agree at convergence scale.

struct Mutation {
  Graph before, after;
  EdgeDelta delta;
};

Mutation mutate(const Graph& g, std::uint64_t seed, std::size_t inserts,
                std::size_t removes) {
  Xoshiro256 rng(seed);
  ArcSet arcs = arcs_of(g);
  const VertexId n = g.num_vertices();
  // Rebuild the baseline from the deduplicated arc set: generators may
  // emit parallel edges, but deltas live in set semantics (DeltaGraph
  // snapshots are sets), so before/after must both be simple graphs.
  std::vector<Edge> base_es;
  base_es.reserve(arcs.size());
  for (const auto& [s, d] : arcs) base_es.push_back({s, d});
  Graph before =
      Graph::from_edges(EdgeList(n, std::move(base_es), /*directed=*/true));
  Mutation m{before, before, {}};
  ArcSet removed;
  while (removed.size() < removes && removed.size() < arcs.size()) {
    auto it = arcs.begin();
    std::advance(it, static_cast<long>(rng.next_below(arcs.size())));
    if (removed.insert(*it).second) {
      m.delta.removed.push_back({it->first, it->second});
      arcs.erase(it);
    }
  }
  ArcSet added;
  while (added.size() < inserts) {
    const auto s = static_cast<VertexId>(rng.next_below(n));
    const auto d = static_cast<VertexId>(rng.next_below(n));
    if (s == d || arcs.count({s, d}) || removed.count({s, d})) continue;
    if (added.insert({s, d}).second) {
      m.delta.inserted.push_back({s, d});
      arcs.insert({s, d});
    }
  }
  std::vector<Edge> es;
  es.reserve(arcs.size());
  for (const auto& [s, d] : arcs) es.push_back({s, d});
  m.after = Graph::from_edges(EdgeList(n, std::move(es), /*directed=*/true));
  return m;
}

void expect_payload_equiv(const std::string& code, const QueryPayload& got,
                          const QueryPayload& want, double n) {
  ASSERT_EQ(got.kind(), want.kind()) << code;
  if (want.kind() == PayloadKind::VertexIds) {
    EXPECT_EQ(got.ids(), want.ids()) << code << ": refresh must be bit-exact";
    EXPECT_EQ(got.values_are_vertex_ids(), want.values_are_vertex_ids());
  } else if (code == "BF") {
    EXPECT_EQ(got.doubles(), want.doubles())
        << "BF: path sums are identical left-folds, refresh is bit-exact";
  } else {
    ASSERT_EQ(got.doubles().size(), want.doubles().size()) << code;
    for (std::size_t v = 0; v < want.doubles().size(); ++v)
      ASSERT_NEAR(got.doubles()[v], want.doubles()[v],
                  1e-5 * (std::abs(want.doubles()[v]) + 1.0 / n))
          << code << " v=" << v;
  }
}

struct SpecCase {
  const char* code;
  QueryParams params;
};

std::vector<SpecCase> refreshable_cases() {
  return {
      // Converged operating points: the refresh hooks converge fully, so
      // the from-scratch reference must too (ROADMAP "Incremental
      // maintenance" spells out this contract).
      {"PR", QueryParams().set("iterations", 120)},
      {"PRD", QueryParams().set("max_iters", 200).set("epsilon", 1e-8)},
      {"CC", QueryParams()},
      {"BFS", QueryParams().set("source", 1)},
      {"BF", QueryParams().set("source", 1)},
  };
}

TEST(SpecRefresh, MatchesFromScratchOnRandomDeltas) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const Graph g = gen::rmat(9, 6, 400 + seed);
    const Mutation m = mutate(g, seed, /*inserts=*/48, /*removes=*/32);
    const Engine e1(m.before, SystemModel::Ligra);
    const Engine e2(m.after, SystemModel::Ligra);
    for (const SpecCase& c : refreshable_cases()) {
      const algo::AlgorithmSpec& spec = algo::spec(c.code);
      ASSERT_TRUE(spec.refresh != nullptr) << c.code;
      const QueryParams norm = spec.params.validate(c.params);
      const QueryPayload prev = spec.run(e1, norm);
      const QueryPayload fresh = spec.refresh(e2, norm, prev, m.delta);
      const QueryPayload want = spec.run(e2, norm);
      expect_payload_equiv(c.code, fresh, want,
                           static_cast<double>(g.num_vertices()));
      // The checksum fold agrees too (exactly for the bit-exact trio).
      if (c.code[0] != 'P') {
        EXPECT_EQ(spec.checksum(fresh), spec.checksum(want)) << c.code;
      }
    }
  }
}

// CC, BFS and BF refresh to the payload a recompute on the new graph
// returns, whole: kind, values and values_are_vertex_ids, with nothing
// carried over from the previous epoch. On the path 0->1->2->3->4 the
// arc 0->4 cuts BFS's deepest level from 4 to 1.
TEST(SpecRefresh, RefreshEqualsRecomputeWholePayload) {
  const auto expect_whole = [](const Mutation& m, VertexId source) {
    const Engine e1(m.before, SystemModel::Ligra);
    const Engine e2(m.after, SystemModel::Ligra);
    for (const char* code : {"CC", "BFS", "BF"}) {
      const algo::AlgorithmSpec& spec = algo::spec(code);
      QueryParams params;
      if (spec.params.find("source") != nullptr) params.set("source", source);
      const QueryParams norm = spec.params.validate(params);
      const QueryPayload fresh =
          spec.refresh(e2, norm, spec.run(e1, norm), m.delta);
      EXPECT_TRUE(fresh == spec.run(e2, norm)) << code;
    }
  };
  const std::vector<Edge> path = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  std::vector<Edge> with_shortcut = path;
  with_shortcut.push_back({0, 4});
  Mutation shortcut{Graph::from_edges(EdgeList(5, path, /*directed=*/true)),
                    Graph::from_edges(EdgeList(5, with_shortcut, true)),
                    {}};
  shortcut.delta.inserted.push_back({0, 4});
  ASSERT_EQ(algo::spec("BFS").run(Engine(shortcut.after, SystemModel::Ligra),
                                  QueryParams().set("source", 0)),
            QueryPayload::vertex_ids({0, 1, 2, 3, 1}));
  expect_whole(shortcut, 0);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE(seed);
    expect_whole(mutate(gen::rmat(10, 6, 600 + seed), seed, /*inserts=*/48,
                        /*removes=*/32),
                 1);
  }
}

TEST(SpecRefresh, PowerlawGraphAndDeleteHeavyDelta) {
  const Graph g = gen::zipf_directed(2000, 77, {.s = 1.0, .ranks = 128});
  const Mutation m = mutate(g, 7, /*inserts=*/10, /*removes=*/60);
  const Engine e1(m.before, SystemModel::Ligra);
  const Engine e2(m.after, SystemModel::Ligra);
  for (const SpecCase& c : refreshable_cases()) {
    const algo::AlgorithmSpec& spec = algo::spec(c.code);
    const QueryParams norm = spec.params.validate(c.params);
    const QueryPayload prev = spec.run(e1, norm);
    const QueryPayload fresh = spec.refresh(e2, norm, prev, m.delta);
    expect_payload_equiv(c.code, fresh, spec.run(e2, norm),
                         static_cast<double>(g.num_vertices()));
  }
}

// refresh_pagerank runs sparse rounds over a frontier list and dense
// Gauss-Seidel sweeps over every vertex, picked by the active out-degree
// sum; each traced round records which (rep 1 = sparse, 2 = dense).
// Both paths must land within tolerance of a scratch run.
TEST(SpecRefresh, DenseSweepsAndSparseRoundsBothMatchScratch) {
  const auto check = [](const Mutation& m, bool want_sweep) {
    const Engine e1(m.before, SystemModel::Ligra);
    const Engine e2(m.after, SystemModel::Ligra);
    for (const SpecCase& c : refreshable_cases()) {
      if (c.code[0] != 'P') continue;
      const algo::AlgorithmSpec& spec = algo::spec(c.code);
      const QueryParams norm = spec.params.validate(c.params);
      const QueryPayload prev = spec.run(e1, norm);
      obs::ThreadTrace trace;
      const QueryPayload fresh = spec.refresh(e2, norm, prev, m.delta);
      const obs::Trace t = trace.finish();
      std::size_t rounds = 0, sweeps = 0;
      for (const obs::Span& s : t.spans) {
        if (s.kind != obs::SpanKind::Iteration) continue;
        ASSERT_NE(s.rep, 0) << c.code << ": the hook ran a full recompute";
        ++rounds;
        if (s.rep == 2) ++sweeps;
      }
      EXPECT_GT(rounds, 0u) << c.code;
      if (want_sweep) {
        EXPECT_GE(sweeps, 1u) << c.code;
      } else {
        EXPECT_EQ(sweeps, 0u) << c.code;
      }
      const std::string json = obs::to_chrome_trace_json(t);
      EXPECT_NE(json.find(want_sweep ? "\"frontier_rep\":\"dense\""
                                     : "\"frontier_rep\":\"sparse\""),
                std::string::npos)
          << c.code;
      expect_payload_equiv(c.code, fresh, spec.run(e2, norm),
                           static_cast<double>(m.after.num_vertices()));
    }
  };
  // (a) Hub-heavy: rmat arcs sampled at random mostly leave hubs, and
  // their residual soon spans more out-edges than n/4.
  check(mutate(gen::rmat(12, 8, 31), 5, /*inserts=*/200, /*removes=*/100),
        /*want_sweep=*/true);
  // (b) One arc on a road grid: the residual diffuses over a few hundred
  // vertices, far below n/4 out-edges.
  check(mutate(gen::road_grid(128, 128, 3), 9, /*inserts=*/1, /*removes=*/0),
        /*want_sweep=*/false);
}

TEST(SpecRefresh, OversizedDeltaFallsBackToFullRun) {
  // A delta past kRefreshRunFallbackFraction must still produce the
  // correct answer (the hook falls back to run() internally).
  const Graph g = gen::rmat(8, 4, 99);
  const Mutation m =
      mutate(g, 3, /*inserts=*/g.num_edges() / 2, /*removes=*/g.num_edges() / 3);
  EXPECT_FALSE(algo::refresh_worthwhile(Engine(m.after, SystemModel::Ligra),
                                        m.delta,
                                        algo::kRefreshRunFallbackFraction));
  const Engine e1(m.before, SystemModel::Ligra);
  const Engine e2(m.after, SystemModel::Ligra);
  for (const SpecCase& c : refreshable_cases()) {
    const algo::AlgorithmSpec& spec = algo::spec(c.code);
    const QueryParams norm = spec.params.validate(c.params);
    const QueryPayload prev = spec.run(e1, norm);
    const QueryPayload fresh = spec.refresh(e2, norm, prev, m.delta);
    expect_payload_equiv(c.code, fresh, spec.run(e2, norm),
                         static_cast<double>(g.num_vertices()));
  }
}

// ---------------------------------- service-level refresh-on-publish path

GraphServiceOptions refresh_service(SystemModel model,
                                    std::size_t workers = 2) {
  GraphServiceOptions o;
  o.workers = workers;
  o.queue_capacity = 64;
  o.engine.model = model;
  o.refresh_on_publish = true;
  // Property tests want the refresh path exercised on every publish; the
  // per-hook kRefreshRunFallbackFraction still guards the extremes.
  o.refresh_max_delta_fraction = 1.0;
  return o;
}

class RefreshEquivalence : public ::testing::TestWithParam<SystemModel> {};

TEST_P(RefreshEquivalence, RefreshedAnswersMatchFromScratch) {
  const SystemModel model = GetParam();
  const Graph base = gen::rmat(9, 6, 501);
  stream::SessionOptions so;
  so.model = model;
  StreamSession session(base, so);
  SnapshotStore store;
  GraphService service(store, refresh_service(model));
  service.publish_session(session);

  // Populate the cache with payload-shaped entries for every
  // refresh-capable algorithm.
  for (const SpecCase& c : refreshable_cases()) {
    Query q(c.code);
    q.params = c.params;
    q.result = ResultKind::Payload;
    ASSERT_NE(service.query(q).payload, nullptr) << c.code;
  }

  Xoshiro256 rng(4242);
  for (int round = 0; round < 4; ++round) {
    session.apply(random_batch(rng, base.num_vertices(), 64));
    service.publish_session(session);
    const std::uint64_t v = service.store().version();
    for (const SpecCase& c : refreshable_cases()) {
      Query q(c.code);
      q.params = c.params;
      q.result = ResultKind::Payload;
      const QueryResult got = service.query(q);
      // Truthful epoch: a refreshed (or recomputed) answer names the
      // epoch it is valid for, never the one it was warm-started from.
      EXPECT_EQ(got.version, v) << c.code << " round " << round;
      ASSERT_NE(got.payload, nullptr);
      const QueryPayload want = session.query_typed(c.code, c.params);
      expect_payload_equiv(c.code, *got.payload, want,
                           static_cast<double>(base.num_vertices()));
    }
  }
  // The equivalence above must have been exercised through the refresh
  // path, not through from-scratch misses.
  EXPECT_GE(service.stats().refreshes, 8u);
  const auto lat = service.refresh_latency();
  EXPECT_FALSE(lat.empty());
  for (const auto& l : lat) EXPECT_GE(l.total_ms, 0.0) << l.algo;
}

INSTANTIATE_TEST_SUITE_P(Models, RefreshEquivalence,
                         ::testing::Values(SystemModel::Ligra,
                                           SystemModel::Polymer,
                                           SystemModel::GraphGrind),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

std::uint64_t refresh_count(const GraphService& service,
                            const std::string& code) {
  for (const auto& l : service.refresh_latency())
    if (l.algo == code) return l.count;
  return 0;
}

TEST(RefreshOnPublish, RePermutingPublishDropsPermBoundEntriesOnly) {
  const Graph base = gen::rmat(9, 6, 502);
  StreamSession session(base);
  SnapshotStore store;
  GraphService service(store, refresh_service(SystemModel::Polymer));
  service.publish_session(session);

  for (const char* code : {"CC", "BF"}) {
    Query q(code);
    q.result = ResultKind::Payload;
    service.query(q);
  }

  // A perm-preserving publish refreshes both: BF's weights are a pure
  // function of snapshot ids, so a stable permutation keeps its warm
  // start valid.
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::insert(1, 2)});
  const Permutation before = session.maintainer().ordering().perm;
  service.publish_session(session);
  ASSERT_EQ(session.maintainer().ordering().perm, before)
      << "one edge must not trigger a rebalance";
  EXPECT_EQ(refresh_count(service, "CC"), 1u);
  EXPECT_EQ(refresh_count(service, "BF"), 1u);
  // Read both again: a publish refreshes only what clients read since
  // the previous one.
  for (const char* code : {"CC", "BF"}) {
    Query q(code);
    q.result = ResultKind::Payload;
    EXPECT_TRUE(service.query(q).cache_hit) << code;
  }

  // Now force a re-permuting publish: a hub batch skewing the in-degree
  // distribution until the maintainer rebalances.
  Xoshiro256 rng(55);
  std::vector<EdgeUpdate> hub;
  for (int i = 0; i < 600; ++i)
    hub.push_back(EdgeUpdate::insert(
        static_cast<VertexId>(rng.next_below(base.num_vertices())),
        static_cast<VertexId>(rng.next_below(4))));
  session.apply(hub);
  ASSERT_NE(session.maintainer().ordering().perm, before)
      << "the hub batch must re-permute (else this test tests nothing)";
  service.publish_session(session);

  // CC survives a permutation change (its refresh is perm-agnostic after
  // translation); BF must have been dropped, not refreshed wrong.
  EXPECT_EQ(refresh_count(service, "CC"), 2u);
  EXPECT_EQ(refresh_count(service, "BF"), 1u);
  EXPECT_GE(service.stats().invalidations, 1u);

  // And the re-queried BF answer (a fresh run) is still correct.
  Query q("BF");
  q.result = ResultKind::Payload;
  const QueryResult got = service.query(q);
  EXPECT_FALSE(got.cache_hit);
  EXPECT_EQ(got.payload->doubles(), session.query_typed("BF").doubles());
}

TEST(RefreshOnPublish, PermBoundEntryRefreshesAfterADeltaFreePublish) {
  // A publish without a delta refreshes nothing and leaves the cache
  // generation behind; the client miss that opens the generation later
  // knows nothing of the permutation. The next delta publish must still
  // see that the order held, since the store keeps every epoch's
  // permutation, and refresh BF instead of dropping it.
  const Graph base = gen::rmat(9, 6, 509);
  StreamSession session(base);
  SnapshotStore store;
  GraphService service(store, refresh_service(SystemModel::Polymer));
  const auto perm = [&] {
    return std::make_shared<const Permutation>(
        session.maintainer().ordering().perm);
  };
  session.drain_delta();
  service.publish(session.shared_snapshot(),
                  session.maintainer().partitioning(), perm());

  Query q("BF");
  q.result = ResultKind::Payload;
  EXPECT_FALSE(service.query(q).cache_hit);

  const Permutation before = session.maintainer().ordering().perm;
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::insert(1, 2)});
  ASSERT_EQ(session.maintainer().ordering().perm, before)
      << "one edge must not trigger a rebalance";
  const EdgeDelta delta = session.drain_delta();
  ASSERT_EQ(delta.inserted.size(), 1u);
  service.publish(session.shared_snapshot(),
                  session.maintainer().partitioning(), perm(), &delta);
  EXPECT_EQ(refresh_count(service, "BF"), 1u);

  const QueryResult got = service.query(q);
  EXPECT_TRUE(got.cache_hit);
  ASSERT_NE(got.payload, nullptr);
  const QueryPayload want = session.query_typed("BF");
  ASSERT_EQ(got.payload->doubles().size(), want.doubles().size());
  EXPECT_EQ(std::memcmp(got.payload->doubles().data(), want.doubles().data(),
                        want.doubles().size() * sizeof(double)),
            0);
}

TEST(RefreshOnPublish, RefreshFollowsReads) {
  const Graph base = gen::rmat(9, 6, 507);
  StreamSession session(base);
  SnapshotStore store;
  GraphService service(store, refresh_service(SystemModel::Polymer));
  service.publish_session(session);
  const auto ask = [&](const char* code) {
    Query q(code);
    q.result = ResultKind::Payload;
    return service.query(q);
  };
  Xoshiro256 rng(77);
  const auto publish = [&] {
    const Permutation before = session.maintainer().ordering().perm;
    session.apply(random_batch(rng, base.num_vertices(), 16));
    service.publish_session(session);
    // BF's refresh needs a stable order; a re-permuting publish would
    // drop it for that reason instead of the read rule.
    ASSERT_EQ(session.maintainer().ordering().perm, before);
  };

  // Epoch 1: CC and BFS are computed by misses, so both are read.
  EXPECT_FALSE(ask("CC").cache_hit);
  EXPECT_FALSE(ask("BFS").cache_hit);
  publish();
  EXPECT_EQ(refresh_count(service, "CC"), 1u);
  EXPECT_EQ(refresh_count(service, "BFS"), 1u);

  // Epoch 2: CC is read again (a hit) and BF is first computed by a
  // miss; the refreshed BFS is not read.
  EXPECT_TRUE(ask("CC").cache_hit);
  EXPECT_FALSE(ask("BF").cache_hit);
  const auto before = service.stats();
  publish();
  EXPECT_EQ(refresh_count(service, "CC"), 2u);
  EXPECT_EQ(refresh_count(service, "BF"), 1u);
  EXPECT_EQ(refresh_count(service, "BFS"), 1u);
  const auto after = service.stats();
  EXPECT_EQ(after.refreshes, before.refreshes + 2);
  // The unread BFS was dropped: one invalidation for the publish.
  EXPECT_EQ(after.invalidations, before.invalidations + 1);

  // Epoch 3: the refreshed keys hit; the dropped one misses and is
  // still right.
  EXPECT_TRUE(ask("CC").cache_hit);
  EXPECT_TRUE(ask("BF").cache_hit);
  const QueryResult bfs = ask("BFS");
  EXPECT_FALSE(bfs.cache_hit);
  ASSERT_NE(bfs.payload, nullptr);
  expect_payload_equiv("BFS", *bfs.payload, session.query_typed("BFS"),
                       static_cast<double>(base.num_vertices()));
}

TEST(RefreshOnPublish, FanOutMatchesSerialHooks) {
  // Every refreshed payload equals, bit for bit, the same hook run
  // serially on a one-thread engine over the new snapshot, fed the same
  // translated previous payload and delta: running the hooks
  // concurrently, each on its own leased engine, changes no answer.
  const SystemModel model = SystemModel::Polymer;
  const Graph base = gen::rmat(10, 8, 508);
  StreamSession session(base);
  SnapshotStore store;
  GraphService service(store, refresh_service(model));
  // publish_session with the drained delta kept for the reference.
  const auto publish = [&] {
    auto perm = std::make_shared<const Permutation>(
        session.maintainer().ordering().perm);
    EdgeDelta delta = session.drain_delta();
    service.publish(session.shared_snapshot(),
                    session.maintainer().partitioning(), perm, &delta);
    return delta;
  };
  publish();

  const std::vector<SpecCase> cases = {
      {"PR", QueryParams().set("iterations", 120)},
      {"PRD", QueryParams().set("max_iters", 200).set("epsilon", 1e-8)},
      {"CC", QueryParams()},
      {"BFS", QueryParams().set("source", 1)},
      {"BFS", QueryParams().set("source", 7)},
      {"BF", QueryParams().set("source", 1)},
  };
  const auto ask = [&](const SpecCase& c) {
    Query q(c.code);
    q.params = c.params;
    q.result = ResultKind::Payload;
    return service.query(q);
  };
  std::vector<std::shared_ptr<const QueryPayload>> prev;
  for (const SpecCase& c : cases) prev.push_back(ask(c).payload);

  Xoshiro256 rng(31);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    const Permutation perm_before = session.maintainer().ordering().perm;
    session.apply(random_batch(rng, base.num_vertices(), 32));
    const EdgeDelta delta = publish();
    ASSERT_EQ(session.maintainer().ordering().perm, perm_before)
        << "BF refreshes only under a stable order";
    EXPECT_EQ(service.engine_pool().outstanding(), 0u);

    const serve::SnapshotRef snap = store.acquire();
    const Permutation& perm = *snap.perm();
    const Permutation inv = invert(perm);
    EdgeDelta snap_delta;
    for (const Edge& e : delta.inserted)
      snap_delta.inserted.push_back({perm[e.src], perm[e.dst]});
    for (const Edge& e : delta.removed)
      snap_delta.removed.push_back({perm[e.src], perm[e.dst]});
    ThreadPool one(1);
    EngineOptions eopts;
    eopts.pool = &one;
    eopts.explicit_partitioning = &snap.partitioning();
    const Engine eng(snap.graph(), model, eopts);

    for (std::size_t i = 0; i < cases.size(); ++i) {
      const SpecCase& c = cases[i];
      SCOPED_TRACE(c.code);
      const algo::AlgorithmSpec& spec = algo::spec(c.code);
      QueryParams exec = spec.params.validate(c.params);
      if (exec.has("source"))
        exec.set("source", perm[exec.get_vertex("source")]);
      const QueryPayload want_snap = spec.refresh(
          eng, exec, algo::translate_to_original_ids(*prev[i], inv),
          snap_delta);
      const QueryPayload want =
          algo::translate_to_original_ids(want_snap, perm);

      const QueryResult got = ask(c);  // a hit, read for the next round
      ASSERT_TRUE(got.cache_hit);
      EXPECT_EQ(got.version, snap.version());
      EXPECT_EQ(got.value, spec.checksum(want_snap));
      ASSERT_NE(got.payload, nullptr);
      EXPECT_TRUE(*got.payload == want);
      prev[i] = got.payload;
    }
  }
  EXPECT_EQ(service.stats().refreshes, 3 * cases.size());
}

TEST(RefreshOnPublish, OversizedDeltaFallsBackToInvalidation) {
  const Graph base = gen::rmat(8, 6, 503);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o = refresh_service(SystemModel::Ligra, 1);
  o.refresh_max_delta_fraction = 1e-9;  // every non-empty delta is "too big"
  GraphService service(store, o);
  service.publish_session(session);

  Query q("CC");
  q.result = ResultKind::Payload;
  service.query(q);

  const auto before = service.stats();
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::insert(0, 5)});
  service.publish_session(session);
  const auto after = service.stats();
  EXPECT_EQ(after.refreshes, before.refreshes);
  EXPECT_EQ(after.invalidations, before.invalidations + 1);

  // The next query is a miss and recomputes correctly.
  const QueryResult got = service.query(q);
  EXPECT_FALSE(got.cache_hit);
  EXPECT_EQ(got.payload->ids(), session.query_typed("CC").ids());
}

TEST(RefreshOnPublish, DefaultModeIsUnchanged) {
  // refresh_on_publish off: publish_session still drains the session's
  // delta (so a later mode flip never sees a stale pile-up) and the
  // cache is invalidated exactly as before.
  const Graph base = gen::rmat(8, 6, 504);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o;
  o.workers = 1;
  GraphService service(store, o);
  service.publish_session(session);
  service.query({"CC", 0});
  EXPECT_EQ(service.query({"CC", 0}).cache_hit, true);

  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::insert(0, 7)});
  service.publish_session(session);
  EXPECT_EQ(session.pending_delta_edges(), 0u);  // drained regardless
  const QueryResult after = service.query({"CC", 0});
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(service.stats().refreshes, 0u);
  EXPECT_TRUE(service.refresh_latency().empty());
  EXPECT_GE(service.stats().invalidations, 1u);
}

// ------------------------------------------------- refresh under chaos

struct DisarmGuard {
  ~DisarmGuard() { FaultInjector::instance().disarm_all(); }
};

TEST(RefreshOnPublish, SurvivesInjectedFaults) {
  // The PR 6 chaos contract extended to the refresh path: a writer
  // publishing refresh-mode epochs while clients flood queries and the
  // injector throws mid-query, fails allocations, and stalls workers.
  // Refresh hooks run concurrently across the global pool, the writer
  // included, each on its own leased engine, competing with the clients
  // for the pool's engines — a throwing hook must drop that entry, never
  // the publish or the ledger.
  DisarmGuard guard;
  auto& inj = FaultInjector::instance();
  inj.seed(0x10C4A05u);
  inj.arm(FaultInjector::Hook::QueryThrow, 0.05);
  inj.arm(FaultInjector::Hook::AllocThrow, 0.02);
  inj.arm(FaultInjector::Hook::WorkerStall, 0.2, 100);

  const Graph base = gen::rmat(9, 6, 506);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o = refresh_service(SystemModel::Polymer, 3);
  o.queue_capacity = 16;
  GraphService service(store, o);
  service.publish_session(session);

  constexpr int kClients = 3;
  constexpr int kQueriesPerClient = 40;
  std::atomic<std::uint64_t> resolved{0}, errored{0}, rejected{0};

  std::thread writer([&] {
    Xoshiro256 rng(66);
    for (int b = 0; b < 8; ++b) {
      session.apply(random_batch(rng, base.num_vertices(), 48));
      service.publish_session(session);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kQueriesPerClient; ++i) {
        Query q(i % 3 == 0 ? "CC" : (i % 3 == 1 ? "BF" : "PR"));
        q.source = static_cast<VertexId>((c * 11 + i) % 64);
        q.result = ResultKind::Payload;
        auto sub = service.submit(q);
        if (!sub.accepted()) {
          rejected.fetch_add(1);
          continue;
        }
        try {
          const QueryResult r = sub.result.get();
          resolved.fetch_add(1);
          EXPECT_GT(r.version, 0u);
        } catch (const serve::ServiceError&) {
          errored.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& t : clients) t.join();
  inj.disarm_all();

  // After the storm, refreshed state is coherent: a fresh query matches
  // the single-caller reference on the final version.
  const QueryResult calm = service.query({"CC", 0});
  EXPECT_EQ(calm.value, session.query("CC"));
  resolved.fetch_add(1);
  service.stop();

  // Every accepted future resolved, the ledger balances, every engine
  // lease (including the writer's refresh/pre-warm leases) came back.
  const auto s = service.stats();
  EXPECT_EQ(resolved.load() + errored.load(), s.completed + s.failed);
  EXPECT_EQ(s.submitted, s.completed + s.failed + s.rejected);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(s.rejected, rejected.load());
  EXPECT_EQ(service.engine_pool().outstanding(), 0u);
}

}  // namespace
}  // namespace vebo
