// Tests for the streaming subsystem: DeltaGraph batch semantics and
// snapshot equivalence, the drift-triggered VEBO maintainer, and
// StreamSession interleaving updates with queries across all three system
// models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "algorithms/registry.hpp"
#include "gen/rmat.hpp"
#include "graph/permute.hpp"
#include "graph_reference.hpp"
#include "metrics/balance.hpp"
#include "obs/trace.hpp"
#include "order/partition.hpp"
#include "order/sort_order.hpp"
#include "order/vebo.hpp"
#include "stream/delta_graph.hpp"
#include "stream/rebalance.hpp"
#include "stream/session.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace vebo {
namespace {

using stream::ApplyResult;
using stream::ArcFlip;
using stream::DeltaGraph;
using stream::EdgeUpdate;
using stream::RebalanceAction;
using stream::RebalanceOptions;
using stream::StreamSession;
using stream::VeboMaintainer;

using EdgeSet = std::set<std::pair<VertexId, VertexId>>;

std::vector<Edge> edge_vector(const EdgeSet& edges) {
  std::vector<Edge> es;
  es.reserve(edges.size());
  for (const auto& [s, d] : edges) es.push_back({s, d});
  return es;
}

Graph reference_graph(VertexId n, const EdgeSet& edges, bool directed = true) {
  return Graph::from_edges(EdgeList(n, edge_vector(edges), directed));
}

/// The spec's checksum under default params, `source` set when the schema
/// takes one — what StreamSession::query answers.
double checksum_of(const char* code, const Engine& eng, VertexId source) {
  const algo::AlgorithmSpec& s = algo::spec(code);
  algo::QueryParams p;
  if (s.params.find("source") != nullptr) p.set("source", source);
  return s.checksum(s.invoke(eng, p));
}

/// The snapshot, in original ids and relabelled by a random permutation,
/// is byte-identical to the sort-based oracle over the live edge set, and
/// the maintained degrees match it.
void expect_snapshot_equals(const DeltaGraph& dg, VertexId n,
                            const EdgeSet& live) {
  ASSERT_EQ(dg.num_vertices(), n);
  const std::vector<Edge> edges = edge_vector(live);
  const oracle::ReferenceGraph ref = oracle::reference_build(n, edges);
  oracle::expect_same_graph(dg.snapshot(), ref);
  const Permutation shuffle = order::random_order(n, live.size());
  oracle::expect_same_graph(dg.snapshot(shuffle),
                            oracle::reference_build(n, edges, shuffle));
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(dg.out_degree(v), ref.out.degree(v)) << "v=" << v;
    ASSERT_EQ(dg.in_degree(v), ref.in.degree(v)) << "v=" << v;
  }
}

/// The one in-side fact a DeltaGraph keeps, after `applied`: the live
/// in-degrees equal the oracle's in-counts over `live`, and
/// `applied.in_degree_delta` is their change since `before` — each
/// changed vertex once, strictly ascending, no zero entries.
void expect_in_degrees(const DeltaGraph& dg, const EdgeSet& live,
                       const std::vector<EdgeId>& before,
                       const ApplyResult& applied) {
  std::vector<EdgeId> want(dg.num_vertices(), 0);
  for (const auto& [s, d] : live) ++want[d];
  ASSERT_EQ(dg.in_degrees(), want);
  std::vector<std::pair<VertexId, std::int64_t>> changed;
  for (VertexId v = 0; v < want.size(); ++v) {
    const auto was =
        static_cast<std::int64_t>(v < before.size() ? before[v] : 0);
    const std::int64_t d = static_cast<std::int64_t>(want[v]) - was;
    if (d != 0) changed.push_back({v, d});
  }
  EXPECT_EQ(applied.in_degree_delta, changed);
}

// ----------------------------------------------------------- DeltaGraph

TEST(DeltaGraph, InsertAndDeleteBasics) {
  DeltaGraph dg(4);
  std::vector<EdgeUpdate> b1 = {EdgeUpdate::insert(0, 1),
                                EdgeUpdate::insert(0, 2),
                                EdgeUpdate::insert(3, 0)};
  const ApplyResult r1 = dg.apply_batch(b1);
  EXPECT_EQ(r1.inserted, 3u);
  EXPECT_EQ(r1.removed, 0u);
  EXPECT_EQ(dg.num_edges(), 3u);
  EXPECT_TRUE(dg.has_edge(0, 1));
  EXPECT_TRUE(dg.has_edge(3, 0));
  EXPECT_FALSE(dg.has_edge(1, 0));
  EXPECT_EQ(dg.out_degree(0), 2u);
  EXPECT_EQ(dg.in_degree(0), 1u);

  std::vector<EdgeUpdate> b2 = {EdgeUpdate::remove(0, 2)};
  const ApplyResult r2 = dg.apply_batch(b2);
  EXPECT_EQ(r2.removed, 1u);
  EXPECT_EQ(dg.num_edges(), 2u);
  EXPECT_FALSE(dg.has_edge(0, 2));
}

TEST(DeltaGraph, SetSemantics) {
  DeltaGraph dg(3);
  dg.apply_batch(std::vector<EdgeUpdate>{EdgeUpdate::insert(0, 1)});
  // Duplicate insert is a no-op.
  const ApplyResult r =
      dg.apply_batch(std::vector<EdgeUpdate>{EdgeUpdate::insert(0, 1)});
  EXPECT_EQ(r.inserted, 0u);
  EXPECT_EQ(dg.num_edges(), 1u);
  // Removing a non-existent edge is a no-op.
  const ApplyResult r2 =
      dg.apply_batch(std::vector<EdgeUpdate>{EdgeUpdate::remove(2, 0)});
  EXPECT_EQ(r2.removed, 0u);
}

TEST(DeltaGraph, TombstoneAndResurrectBaseEdge) {
  const Graph base = reference_graph(3, {{0, 1}, {1, 2}});
  DeltaGraph dg(base);
  EXPECT_EQ(dg.num_edges(), 2u);

  dg.apply_batch(std::vector<EdgeUpdate>{EdgeUpdate::remove(0, 1)});
  EXPECT_FALSE(dg.has_edge(0, 1));
  EXPECT_EQ(dg.num_edges(), 1u);
  EXPECT_EQ(dg.delta_edges(), 1u);  // one tombstone

  dg.apply_batch(std::vector<EdgeUpdate>{EdgeUpdate::insert(0, 1)});
  EXPECT_TRUE(dg.has_edge(0, 1));
  EXPECT_EQ(dg.num_edges(), 2u);
  EXPECT_EQ(dg.delta_edges(), 0u);  // tombstone removed, not an add
}

TEST(DeltaGraph, LastUpdateWinsWithinBatch) {
  DeltaGraph dg(2);
  dg.apply_batch(std::vector<EdgeUpdate>{EdgeUpdate::insert(0, 1),
                                         EdgeUpdate::remove(0, 1)});
  EXPECT_FALSE(dg.has_edge(0, 1));
  EXPECT_EQ(dg.num_edges(), 0u);

  dg.apply_batch(std::vector<EdgeUpdate>{EdgeUpdate::remove(0, 1),
                                         EdgeUpdate::insert(0, 1)});
  EXPECT_TRUE(dg.has_edge(0, 1));
  EXPECT_EQ(dg.num_edges(), 1u);
}

TEST(DeltaGraph, BatchGrowsVertexSet) {
  DeltaGraph dg(2);
  const ApplyResult r =
      dg.apply_batch(std::vector<EdgeUpdate>{EdgeUpdate::insert(0, 5)});
  EXPECT_EQ(r.grew_vertices, 4u);
  EXPECT_EQ(dg.num_vertices(), 6u);
  EXPECT_TRUE(dg.has_edge(0, 5));
  EXPECT_EQ(dg.in_degree(5), 1u);
}

TEST(DeltaGraph, ReportsInDegreeDeltas) {
  const Graph base = reference_graph(4, {{0, 1}, {2, 1}});
  DeltaGraph dg(base);
  const ApplyResult r = dg.apply_batch(std::vector<EdgeUpdate>{
      EdgeUpdate::insert(3, 1), EdgeUpdate::remove(0, 1),
      EdgeUpdate::insert(1, 2)});
  // Net in-degree change: v1 = +1 -1 = 0 entries dropped; v2 = +1.
  EdgeSet changed;
  for (const auto& [v, d] : r.in_degree_delta) {
    EXPECT_NE(d, 0);
    changed.insert({v, 0});
    if (v == 2) {
      EXPECT_EQ(d, 1);
    }
  }
  EXPECT_EQ(changed.count({2, 0}), 1u);
  EXPECT_EQ(changed.count({1, 0}), 0u);  // net zero change is not reported
}

TEST(DeltaGraph, SnapshotMatchesFromEdges) {
  const Graph base = reference_graph(5, {{0, 1}, {1, 2}, {4, 0}});
  DeltaGraph dg(base);
  dg.apply_batch(std::vector<EdgeUpdate>{
      EdgeUpdate::insert(2, 3), EdgeUpdate::remove(1, 2),
      EdgeUpdate::insert(3, 0), EdgeUpdate::insert(0, 4)});
  expect_snapshot_equals(dg, 5, {{0, 1}, {4, 0}, {2, 3}, {3, 0}, {0, 4}});
}

TEST(DeltaGraph, CompactPreservesGraphAndClearsDeltas) {
  const Graph base = reference_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  DeltaGraph dg(base);
  dg.apply_batch(std::vector<EdgeUpdate>{EdgeUpdate::remove(1, 2),
                                         EdgeUpdate::insert(3, 0)});
  EXPECT_GT(dg.delta_edges(), 0u);
  const Graph before = dg.snapshot();
  dg.compact();
  EXPECT_EQ(dg.delta_edges(), 0u);
  const Graph after = dg.snapshot();
  EXPECT_EQ(before.out_csr(), after.out_csr());
  EXPECT_EQ(before.in_csr(), after.in_csr());
  // Still mutable after compaction.
  dg.apply_batch(std::vector<EdgeUpdate>{EdgeUpdate::insert(1, 2)});
  EXPECT_TRUE(dg.has_edge(1, 2));
}

TEST(DeltaGraph, UndirectedUpdatesMirrorBothOrientations) {
  EdgeList el(4, {{0, 1}, {1, 2}}, true);
  el.symmetrize();
  const Graph base = Graph::from_edges(el);
  ASSERT_FALSE(base.directed());
  DeltaGraph dg(base);
  EdgeSet live{{0, 1}, {1, 0}, {1, 2}, {2, 1}};
  std::vector<EdgeId> before = dg.in_degrees();

  // One orientation in the update; both live afterwards.
  const ApplyResult r =
      dg.apply_batch(std::vector<EdgeUpdate>{EdgeUpdate::insert(2, 3)});
  EXPECT_EQ(r.inserted, 2u);
  EXPECT_TRUE(dg.has_edge(2, 3));
  EXPECT_TRUE(dg.has_edge(3, 2));
  live.insert({{2, 3}, {3, 2}});
  expect_in_degrees(dg, live, before, r);
  before = dg.in_degrees();

  // Removing either orientation kills both.
  const ApplyResult r2 =
      dg.apply_batch(std::vector<EdgeUpdate>{EdgeUpdate::remove(1, 0)});
  EXPECT_FALSE(dg.has_edge(0, 1));
  EXPECT_FALSE(dg.has_edge(1, 0));
  live.erase({0, 1});
  live.erase({1, 0});
  expect_in_degrees(dg, live, before, r2);

  // The snapshot keeps the undirected invariant: out == in everywhere.
  const Graph snap = dg.snapshot();
  EXPECT_FALSE(snap.directed());
  for (VertexId v = 0; v < snap.num_vertices(); ++v)
    EXPECT_EQ(snap.out_degree(v), snap.in_degree(v)) << "v=" << v;
  EdgeList want(4, {{1, 2}, {2, 3}}, true);
  want.symmetrize();
  oracle::expect_same_graph(
      snap, oracle::reference_build(4, std::vector<Edge>(want.edges().begin(),
                                                        want.edges().end())));
}

// Property: after N random insert/delete batches, some of which grow the
// vertex set and some of which follow a compaction, every snapshot is
// byte-identical to the sort-based oracle over the live edge set (the
// streaming acceptance property), and every batch leaves the oracle's
// in-degrees and reports their change.
TEST(DeltaGraph, RandomBatchesSnapshotEquivalence) {
  const VertexId n0 = 120;
  const int kBatches = 25, kBatchSize = 60;
  Xoshiro256 rng(1234);
  DeltaGraph dg(n0);
  EdgeSet ref;
  VertexId n = n0;

  for (int b = 0; b < kBatches; ++b) {
    SCOPED_TRACE(b);
    // Every third batch reaches a few ids past the current vertex count.
    const VertexId span = n + (b % 3 == 2 ? 4 : 0);
    std::vector<EdgeUpdate> batch;
    batch.reserve(kBatchSize);
    for (int i = 0; i < kBatchSize; ++i) {
      // Skewed endpoints so some vertices become hubs (degree drift).
      const VertexId s = static_cast<VertexId>(rng.next_below(span));
      const VertexId d = static_cast<VertexId>(
          rng.next_below(static_cast<std::uint64_t>(span) / (1 + b % 4)));
      const bool ins = rng.next_below(10) < 7;  // 70% inserts
      batch.push_back(ins ? EdgeUpdate::insert(s, d)
                          : EdgeUpdate::remove(s, d));
      n = std::max({n, s + 1, d + 1});
      if (ins)
        ref.insert({s, d});
      else
        ref.erase({s, d});
    }
    const std::vector<EdgeId> before = dg.in_degrees();
    const ApplyResult applied = dg.apply_batch(batch);
    ASSERT_EQ(dg.num_edges(), ref.size()) << "batch " << b;
    expect_in_degrees(dg, ref, before, applied);
    if (b % 5 == 4) expect_snapshot_equals(dg, n, ref);
    if (b % 4 == 3) dg.compact();
  }
  EXPECT_GT(n, n0);
  expect_snapshot_equals(dg, n, ref);
}

// bfs/cc/pagerank agree on the streamed snapshot across all three
// engines, matching the from_edges rebuild.
TEST(DeltaGraph, AlgorithmsAgreeOnSnapshotAcrossEngines) {
  const Graph full = gen::rmat(10, 8, /*seed=*/3);
  const std::vector<Edge> all = walked_edges(full);

  // Seed a DeltaGraph with the first half, stream the second half in
  // batches, delete a scattering of seeded edges again.
  const std::size_t half = all.size() / 2;
  EdgeSet ref;
  std::vector<Edge> seed_edges(all.begin(), all.begin() + half);
  for (const Edge& e : seed_edges) ref.insert({e.src, e.dst});
  DeltaGraph dg(reference_graph(full.num_vertices(),
                                ref));
  Xoshiro256 rng(99);
  std::vector<EdgeUpdate> batch;
  for (std::size_t i = half; i < all.size(); ++i) {
    batch.push_back(EdgeUpdate::insert(all[i].src, all[i].dst));
    ref.insert({all[i].src, all[i].dst});
    if (rng.next_below(8) == 0 && !ref.empty()) {
      const Edge& e = seed_edges[rng.next_below(seed_edges.size())];
      batch.push_back(EdgeUpdate::remove(e.src, e.dst));
      ref.erase({e.src, e.dst});
    }
    if (batch.size() >= 512) {
      dg.apply_batch(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) dg.apply_batch(batch);

  const Graph snap = dg.snapshot();
  expect_snapshot_equals(dg, full.num_vertices(), ref);
  const Graph rebuilt = reference_graph(full.num_vertices(), ref);

  const VertexId src = 1;
  for (const char* code : {"BFS", "CC", "PR"}) {
    double first = 0;
    bool have_first = false;
    for (SystemModel model : {SystemModel::Ligra, SystemModel::Polymer,
                              SystemModel::GraphGrind}) {
      Engine snap_eng(snap, model);
      Engine ref_eng(rebuilt, model);
      const double a = checksum_of(code, snap_eng, src);
      const double b = checksum_of(code, ref_eng, src);
      EXPECT_NEAR(a, b, 1e-9 * (1.0 + std::abs(b)))
          << code << " on " << to_string(model);
      if (!have_first) {
        first = a;
        have_first = true;
      } else {
        EXPECT_NEAR(a, first, 1e-9 * (1.0 + std::abs(first)))
            << code << " across engines";
      }
    }
  }
}

// ------------------------------------------------------- VeboMaintainer

TEST(Maintainer, NoActionWithoutDrift) {
  const Graph base = gen::rmat(9, 8, 5);
  DeltaGraph dg(base);
  VeboMaintainer m(dg, {.partitions = 4});
  const ApplyResult r =
      dg.apply_batch(std::vector<EdgeUpdate>{EdgeUpdate::insert(1, 2)});
  m.observe(r);
  EXPECT_EQ(m.maybe_rebalance(dg), RebalanceAction::None);
  EXPECT_EQ(m.stats().full, 0u);
}

/// Hammers in-edges onto the `count` vertices at the low-degree tail of
/// partition 0 (the last positions of its contiguous range hold its
/// smallest in-degrees after a full VEBO run), 64 per batch from random
/// sources, until the maintainer rebalances or 50 batches pass. All
/// drift lands in one partition, so the tracked edge imbalance must
/// cross the bound. Returns the last batch's action; `changed`, when
/// given, collects every vertex whose in-degree moved.
RebalanceAction drift_onto_partition0_tail(
    DeltaGraph& dg, VeboMaintainer& m, std::size_t count, std::uint64_t seed,
    std::set<VertexId>* changed = nullptr) {
  std::vector<VertexId> targets;
  {
    const auto& ord = m.ordering();
    const Permutation inv = invert(ord.perm);
    for (VertexId pos = ord.partitioning.end(0);
         pos-- > ord.partitioning.begin(0) && targets.size() < count;)
      targets.push_back(inv[pos]);
  }
  Xoshiro256 rng(seed);
  RebalanceAction action = RebalanceAction::None;
  for (int round = 0; round < 50 && action == RebalanceAction::None;
       ++round) {
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < 64; ++i) {
      const VertexId s = static_cast<VertexId>(rng.next_below(
          dg.num_vertices()));
      const VertexId d = targets[rng.next_below(targets.size())];
      batch.push_back(EdgeUpdate::insert(s, d));
    }
    const ApplyResult r = dg.apply_batch(batch);
    if (changed != nullptr)
      for (const auto& [v, delta] : r.in_degree_delta) changed->insert(v);
    m.observe(r);
    action = m.maybe_rebalance(dg);
  }
  return action;
}

TEST(Maintainer, DriftTriggersAFullRunAndRestoresBounds) {
  const Graph base = gen::rmat(10, 8, 11);
  DeltaGraph dg(base);
  RebalanceOptions opts;
  opts.partitions = 4;
  opts.edge_drift = 0.02;
  VeboMaintainer m(dg, opts);

  // 200 targets: the drifted vertices stay low-degree, so the full run
  // can spread them finely.
  EXPECT_EQ(drift_onto_partition0_tail(dg, m, 200, 21),
            RebalanceAction::Full);
  EXPECT_EQ(m.stats().full, 1u);
  EXPECT_LE(m.edge_imbalance(), m.edge_bound(dg));
  EXPECT_LE(m.vertex_imbalance(), m.vertex_bound(dg));

  // The maintained loads must match a from-scratch profile of the
  // reordered snapshot under the maintained partitioning.
  const Graph reordered = dg.snapshot(m.ordering().perm);
  const auto prof = metrics::profile_partitions(reordered, m.partitioning());
  EXPECT_EQ(prof.edges, m.ordering().part_edges);
  EXPECT_LE(prof.edge_imbalance(), m.edge_bound(dg));
}

/// The maintainer holds exactly Algorithm 2's ordering of the live
/// in-degrees: the perm, loads and partitioning of a fresh full run.
void expect_full_run(const VeboMaintainer& m, const DeltaGraph& dg,
                     VertexId P) {
  const order::VeboResult fresh =
      order::vebo_from_degrees(dg.in_degrees(), P);
  EXPECT_EQ(m.ordering().perm, fresh.perm);
  EXPECT_EQ(m.ordering().part_edges, fresh.part_edges);
  EXPECT_EQ(m.ordering().part_vertices, fresh.part_vertices);
  EXPECT_EQ(m.partitioning().boundaries, fresh.partitioning.boundaries);
}

// Every ordering the maintainer adopts is a full run: after drift
// concentrated on a few vertices, and after the vertex set grows.
TEST(Maintainer, RebalanceAdoptsTheFullRun) {
  const VertexId P = 4;
  const Graph base = gen::rmat(10, 8, 11);
  DeltaGraph dg(base);
  RebalanceOptions opts;
  opts.partitions = P;
  opts.edge_drift = 0.02;
  VeboMaintainer m(dg, opts);
  expect_full_run(m, dg, P);

  // 16 targets: Δ crosses the bound while under 2% of the vertices have
  // changed.
  std::set<VertexId> changed;
  ASSERT_NE(drift_onto_partition0_tail(dg, m, 16, 5, &changed),
            RebalanceAction::None);
  EXPECT_LE(changed.size(), 16u);
  expect_full_run(m, dg, P);

  // Growth: one batch reaches two ids past the vertex count.
  const VertexId n = dg.num_vertices();
  const ApplyResult grown = dg.apply_batch(std::vector<EdgeUpdate>{
      EdgeUpdate::insert(n + 1, 0), EdgeUpdate::insert(3, n)});
  ASSERT_EQ(dg.num_vertices(), n + 2);
  m.observe(grown);
  EXPECT_NE(m.maybe_rebalance(dg), RebalanceAction::None);
  expect_full_run(m, dg, P);
  EXPECT_EQ(m.stats().full, 2u);
}

TEST(Maintainer, UnattainableBoundDoesNotRebalanceEveryBatch) {
  // A star graph: every edge points at vertex 0, so even an optimal VEBO
  // run has edge imbalance ~= the hub degree, far above the absolute
  // drift bound. The maintainer must measure drift relative to the
  // achieved balance and stay quiet while the hub grows slowly.
  const VertexId n = 1000;
  std::vector<Edge> edges;
  for (VertexId v = 1; v < n; ++v) edges.push_back({v, 0});
  const Graph base = Graph::from_edges(EdgeList(n, std::move(edges), true));
  DeltaGraph dg(base);
  RebalanceOptions opts;
  opts.partitions = 4;
  VeboMaintainer m(dg, opts);
  EXPECT_GT(m.edge_imbalance(), m.edge_bound(dg));  // bound unattainable

  for (int b = 0; b < 10; ++b) {
    const ApplyResult r = dg.apply_batch(std::vector<EdgeUpdate>{
        EdgeUpdate::insert(0, static_cast<VertexId>(1 + b))});
    m.observe(r);
    EXPECT_EQ(m.maybe_rebalance(dg), RebalanceAction::None) << "batch " << b;
  }
  EXPECT_EQ(m.stats().full, 0u);
}

// --------------------------------------------------------- StreamSession

TEST(Session, InterleavedUpdatesAndQueriesMatchStaticRebuild) {
  const Graph full = gen::rmat(10, 6, 17);
  const std::vector<Edge> all = walked_edges(full);
  const std::size_t half = all.size() / 2;

  EdgeSet ref;
  for (std::size_t i = 0; i < half; ++i)
    ref.insert({all[i].src, all[i].dst});
  StreamSession session(reference_graph(full.num_vertices(), ref));

  Xoshiro256 rng(5);
  std::size_t cursor = half;
  for (int round = 0; round < 4; ++round) {
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < 600 && cursor < all.size(); ++i, ++cursor) {
      batch.push_back(EdgeUpdate::insert(all[cursor].src, all[cursor].dst));
      ref.insert({all[cursor].src, all[cursor].dst});
    }
    session.apply(batch);
    // The published snapshot is the oracle graph under the maintained
    // VEBO ordering.
    oracle::expect_same_graph(
        session.snapshot(),
        oracle::reference_build(full.num_vertices(), edge_vector(ref),
                                 session.maintainer().ordering().perm));

    const Graph rebuilt = reference_graph(full.num_vertices(), ref);
    Engine ref_eng(rebuilt, SystemModel::Polymer);
    for (const char* code : {"BFS", "CC", "PR"}) {
      const double got = session.query(code, /*source=*/1);
      const double want = checksum_of(code, ref_eng, 1);
      EXPECT_NEAR(got, want, 1e-9 * (1.0 + std::abs(want)))
          << code << " round " << round;
    }
  }
  EXPECT_EQ(session.stats().batches, 4u);
  EXPECT_EQ(session.stats().queries, 12u);
  // One snapshot per mutated round, not per query.
  EXPECT_EQ(session.stats().snapshots, 4u);
}

TEST(Session, AllThreeModelsAgree) {
  const Graph base = gen::rmat(9, 6, 23);
  std::vector<double> bfs_result;
  for (SystemModel model : {SystemModel::Ligra, SystemModel::Polymer,
                            SystemModel::GraphGrind}) {
    stream::SessionOptions opts;
    opts.model = model;
    StreamSession session(base, opts);
    std::vector<EdgeUpdate> batch;
    Xoshiro256 rng(41);
    for (int i = 0; i < 500; ++i)
      batch.push_back(EdgeUpdate::insert(
          static_cast<VertexId>(rng.next_below(base.num_vertices())),
          static_cast<VertexId>(rng.next_below(base.num_vertices()))));
    session.apply(batch);
    bfs_result.push_back(session.query("BFS", 1));
  }
  EXPECT_EQ(bfs_result[0], bfs_result[1]);
  EXPECT_EQ(bfs_result[1], bfs_result[2]);
}

// ------------------------------------------------- patched snapshots

/// The session's snapshot is byte-identical to the full relabel of its
/// DeltaGraph under the maintained ordering: CSR, CSC and edge walk.
void expect_same_as_full_relabel(StreamSession& session) {
  const Graph& got = session.snapshot();
  const Graph full =
      session.delta().snapshot(session.maintainer().ordering().perm);
  EXPECT_EQ(got.directed(), full.directed());
  EXPECT_EQ(got.out_csr(), full.out_csr());
  EXPECT_EQ(got.in_csr(), full.in_csr());
  EXPECT_EQ(walked_edges(got), walked_edges(full));
}

/// Bounds no drift reaches: only vertex growth rebalances.
RebalanceOptions no_drift_rebalance() {
  RebalanceOptions r;
  r.edge_drift = 1e9;
  r.vertex_drift = 1e9;
  return r;
}

/// A vertex id below `span`, skewed toward the low ids so a few of them
/// become hubs.
VertexId skewed_id(Xoshiro256& rng, VertexId span) {
  return static_cast<VertexId>(rng.next_below(1 + rng.next_below(span)));
}

struct PatchRun {
  bool directed = true;
  double compact_fraction = 0.5;
  RebalanceOptions rebalance{};
  bool grow = false;  ///< every eighth batch reaches past the vertex count
  std::uint64_t seed = 1;
};

struct PatchCounts {
  std::uint64_t snapshots = 0;
  std::uint64_t patched = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t compactions = 0;
};

/// Drives random batches through a session, skipping about a third of
/// the snapshots so flips accumulate, and checks every snapshot against
/// the full relabel and the oracle. The patch path must run exactly when
/// the ordering held since the previous snapshot: never for the first,
/// never after a rebalance, growth or compaction, never once the net
/// flips since the last snapshot outnumbered the live edges.
PatchCounts run_patch_differential(const PatchRun& run) {
  const VertexId n0 = 160;
  Xoshiro256 rng(run.seed);
  EdgeSet live;
  auto model = [&](const EdgeUpdate& u) {
    auto set = [&](VertexId s, VertexId d) {
      if (u.kind == stream::UpdateKind::Insert)
        live.insert({s, d});
      else
        live.erase({s, d});
    };
    set(u.src, u.dst);
    if (!run.directed) set(u.dst, u.src);
  };
  for (int i = 0; i < 900; ++i)
    model(EdgeUpdate::insert(static_cast<VertexId>(rng.next_below(n0)),
                             skewed_id(rng, n0)));
  stream::SessionOptions opts;
  opts.compact_fraction = run.compact_fraction;
  opts.rebalance = run.rebalance;
  StreamSession session(reference_graph(n0, live, run.directed), opts);

  VertexId n = n0;
  bool ordering_changed = true;  // no snapshot yet
  EdgeSet live_at_snapshot;
  PatchCounts counts;
  const int kBatches = 40;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<EdgeUpdate> batch;
    // One arc toggles every batch: across skipped snapshots its flips
    // run insert -> remove -> insert -> ...
    batch.push_back(live.contains({3, 1}) ? EdgeUpdate::remove(3, 1)
                                          : EdgeUpdate::insert(3, 1));
    // Insert -> remove -> insert of one arc within the batch.
    if (b % 3 == 0) {
      const auto s = static_cast<VertexId>(rng.next_below(n));
      const VertexId d = skewed_id(rng, n);
      batch.push_back(EdgeUpdate::insert(s, d));
      batch.push_back(EdgeUpdate::remove(s, d));
      batch.push_back(EdgeUpdate::insert(s, d));
    }
    // Removals of live arcs.
    for (int i = 0; i < 12 && !live.empty(); ++i) {
      auto it = live.begin();
      std::advance(it,
                   static_cast<std::ptrdiff_t>(rng.next_below(live.size())));
      batch.push_back(EdgeUpdate::remove(it->first, it->second));
    }
    // Skewed inserts; a growth batch reaches a few ids past the count.
    const bool grow = run.grow && b % 8 == 7;
    const VertexId span = grow ? n + 3 : n;
    if (grow) batch.push_back(EdgeUpdate::insert(n + 1, skewed_id(rng, n)));
    for (int i = 0; i < 24; ++i)
      batch.push_back(EdgeUpdate::insert(
          static_cast<VertexId>(rng.next_below(span)), skewed_id(rng, span)));
    for (const EdgeUpdate& u : batch) {
      model(u);
      n = std::max({n, u.src + 1, u.dst + 1});
    }

    const std::uint64_t compactions = session.stats().compactions;
    const StreamSession::BatchOutcome out = session.apply(batch);
    EXPECT_EQ(session.delta().num_edges(), live.size()) << "batch " << b;
    // Arcs whose liveness changed since the last snapshot, net.
    std::size_t net_flips = 0;
    for (const auto& arc : live) net_flips += !live_at_snapshot.contains(arc);
    for (const auto& arc : live_at_snapshot) net_flips += !live.contains(arc);
    if (out.rebalance != RebalanceAction::None ||
        out.applied.grew_vertices > 0 ||
        session.stats().compactions != compactions ||
        net_flips > live.size())
      ordering_changed = true;
    if (out.rebalance != RebalanceAction::None) ++counts.rebalances;
    if (b + 1 < kBatches && rng.next_below(3) == 0) continue;  // skip

    const stream::SessionStats before = session.stats();
    expect_same_as_full_relabel(session);
    oracle::expect_same_graph(
        session.snapshot(),
        oracle::reference_build(n, edge_vector(live),
                                session.maintainer().ordering().perm));
    EXPECT_EQ(session.stats().snapshots, before.snapshots + 1)
        << "batch " << b;
    EXPECT_EQ(session.stats().snapshots_patched,
              before.snapshots_patched + (ordering_changed ? 0 : 1))
        << "batch " << b;
    ordering_changed = false;
    live_at_snapshot = live;
  }
  counts.snapshots = session.stats().snapshots;
  counts.patched = session.stats().snapshots_patched;
  counts.compactions = session.stats().compactions;
  return counts;
}

// The patched snapshot is byte-identical to the full relabel and to the
// sort-based oracle, on directed and symmetrized graphs, with hub rows,
// removals, compaction, vertex growth and rebalances between snapshots;
// the patch path runs whenever the ordering held.
TEST(SessionPatch, PatchedSnapshotsMatchFullRelabelAndOracle) {
  // Tight enough that about half the batches rebalance, so both paths
  // interleave.
  RebalanceOptions tight;
  tight.edge_drift = 0.02;
  tight.vertex_drift = 0.02;
  for (const bool directed : {true, false}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << (directed ? "directed" : "symmetrized") << " seed "
                   << seed);
      PatchRun run;
      run.directed = directed;
      run.seed = seed;
      run.rebalance = no_drift_rebalance();
      run.compact_fraction = 0;  // off
      const PatchCounts plain = run_patch_differential(run);
      EXPECT_EQ(plain.patched + 1, plain.snapshots);  // all but the first

      run.compact_fraction = 0.1;  // every few batches
      const PatchCounts compacting = run_patch_differential(run);
      EXPECT_GT(compacting.compactions, 2u);
      EXPECT_GT(compacting.patched, 0u);
      EXPECT_GE(compacting.snapshots - compacting.patched, 2u);

      run.compact_fraction = 0.5;
      run.grow = true;
      const PatchCounts growing = run_patch_differential(run);
      EXPECT_GE(growing.rebalances, 5u);  // growth always rebalances
      EXPECT_GT(growing.patched, 0u);
      EXPECT_GE(growing.snapshots - growing.patched, 2u);

      run.grow = false;
      run.rebalance = tight;
      const PatchCounts rebalancing = run_patch_differential(run);
      EXPECT_GT(rebalancing.rebalances, 0u);
      EXPECT_GT(rebalancing.patched, 0u);
      EXPECT_GE(rebalancing.snapshots - rebalancing.patched, 2u);
    }
  }
}

// Net flips that outnumber the live edges are dropped: the next snapshot
// takes the full path, and the one after patches again. Flips that
// cancel out do not count.
TEST(SessionPatch, FlipsPastTheEdgeCountTakeTheFullPath) {
  stream::SessionOptions opts;
  opts.rebalance = no_drift_rebalance();
  StreamSession session(reference_graph(16, {{0, 1}, {1, 2}, {2, 3}}), opts);
  expect_same_as_full_relabel(session);
  for (int i = 0; i < 4; ++i)  // 4 flips of (5, 6), net none
    session.apply(std::vector<EdgeUpdate>{
        i % 2 == 0 ? EdgeUpdate::insert(5, 6) : EdgeUpdate::remove(5, 6)});
  expect_same_as_full_relabel(session);
  EXPECT_EQ(session.stats().snapshots_patched, 1u);
  // 3 net flips > 2 live edges.
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::remove(0, 1),
                                        EdgeUpdate::remove(1, 2),
                                        EdgeUpdate::insert(5, 6)});
  expect_same_as_full_relabel(session);
  EXPECT_EQ(session.stats().snapshots_patched, 1u);
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::insert(0, 1)});
  expect_same_as_full_relabel(session);
  EXPECT_EQ(session.stats().snapshots, 4u);
  EXPECT_EQ(session.stats().snapshots_patched, 2u);
}

// Duplicate base arcs (from_edges keeps them) lose and regain one copy
// per flip, as on the full path.
TEST(SessionPatch, MultigraphCopiesPatchLikeTheFullPath) {
  const Graph base = Graph::from_edges(
      EdgeList(6, {{0, 1}, {0, 1}, {2, 1}, {1, 2}, {4, 4}, {4, 4}}, true));
  stream::SessionOptions opts;
  opts.rebalance = no_drift_rebalance();
  StreamSession session(base, opts);
  expect_same_as_full_relabel(session);
  for (const EdgeUpdate u :
       {EdgeUpdate::remove(0, 1), EdgeUpdate::remove(4, 4),
        EdgeUpdate::insert(0, 1), EdgeUpdate::insert(4, 4)}) {
    session.apply(std::vector<EdgeUpdate>{u});
    expect_same_as_full_relabel(session);
  }
  EXPECT_EQ(session.stats().snapshots_patched, 4u);
}

// A compaction folds a duplicated arc's tombstone into the base, so the
// arc's next removal flips it -1 again. Two -1 flips in a row are not
// one arc's liveness history, so a compaction since the last snapshot
// sends the next one down the full path.
TEST(SessionPatch, CompactionOfADuplicatedArcTakesTheFullPath) {
  const Graph base = Graph::from_edges(
      EdgeList(4, {{0, 1}, {0, 1}, {1, 2}, {2, 3}}, true));
  stream::SessionOptions opts;
  opts.rebalance = no_drift_rebalance();
  opts.compact_fraction = 0.1;  // one tombstone compacts
  StreamSession session(base, opts);
  expect_same_as_full_relabel(session);
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::remove(0, 1)});
  EXPECT_EQ(session.stats().compactions, 1u);
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::remove(0, 1)});
  EXPECT_EQ(session.delta().num_edges(), 2u);
  expect_same_as_full_relabel(session);
  expect_same_as_full_relabel(session);  // a second call does not rebuild
  EXPECT_EQ(session.stats().snapshots, 2u);
  EXPECT_EQ(session.stats().snapshots_patched, 0u);
}

/// The message of the vebo::Error `fn` throws ("" when none).
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// The row-patch kernel on its own: a correct patch equals the oracle;
// a removed value absent from its row, a row size that disagrees with
// the degrees, a sign other than -1 or +1, an arc listed twice and a
// permutation value out of range all throw.
TEST(SessionPatch, RowPatchKernelChecksItsInputs) {
  const VertexId n = 6;
  const EdgeSet before{{0, 1}, {0, 3}, {2, 1}, {4, 5}, {5, 0}};
  const Permutation perm = order::random_order(n, 7);
  const Graph prev = Graph::from_edges(
      EdgeList(n, edge_vector(before), true));
  const Graph prev_perm = permute(prev, perm);
  auto degrees = [&](const EdgeSet& live, bool by_dst) {
    std::vector<EdgeId> deg(n, 0);
    for (const auto& [s, d] : live) ++deg[by_dst ? d : s];
    return deg;
  };

  // Remove (0, 3) and insert (3, 0).
  const std::vector<ArcFlip> flips{{{0, 3}, -1}, {{3, 0}, +1}};
  const EdgeSet after{{0, 1}, {2, 1}, {3, 0}, {4, 5}, {5, 0}};
  const oracle::ReferenceGraph want =
      oracle::reference_build(n, edge_vector(after), perm);
  EXPECT_EQ(stream::patch_rows(prev_perm.out_csr(), flips, perm, false,
                               degrees(after, false)),
            want.out);
  EXPECT_EQ(stream::patch_rows(prev_perm.in_csr(), flips, perm, true,
                               degrees(after, true)),
            want.in);

  auto patch_error = [&](std::vector<ArcFlip> bad_flips,
                         const Permutation& p) {
    return error_of([&] {
      stream::patch_rows(prev_perm.out_csr(), bad_flips, p, false,
                         degrees(before, false));
    });
  };
  // (1, 0) is not in the graph. Row 1 also gains (1, 5), so its size
  // still agrees with the degrees and only the presence check can catch
  // the removal.
  EXPECT_NE(patch_error({{{1, 0}, -1}, {{1, 5}, +1}}, perm).find("absent"),
            std::string::npos);
  EXPECT_NE(patch_error({{{0, 4}, +1}}, perm).find("live degree"),
            std::string::npos);
  EXPECT_NE(patch_error({{{0, 4}, +2}}, perm).find("net flip"),
            std::string::npos);
  EXPECT_NE(patch_error({{{0, 4}, +1}, {{0, 4}, +1}}, perm).find("twice"),
            std::string::npos);
  Permutation bad = perm;
  bad[4] = n;  // no longer a permutation of 0..n-1
  EXPECT_NE(patch_error({{{0, 4}, +1}}, bad).find("permutation value"),
            std::string::npos);
}

// The Snapshot span says which path built it and how many net flips the
// patch applied; the Chrome export names them.
TEST(SessionPatch, SnapshotSpanRecordsThePath) {
  stream::SessionOptions opts;
  opts.rebalance = no_drift_rebalance();
  StreamSession session(
      reference_graph(8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 6}}), opts);
  obs::Tracer::begin();
  (void)session.snapshot();  // first: full
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::insert(4, 5),
                                        EdgeUpdate::remove(1, 2)});
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::insert(6, 7),
                                        EdgeUpdate::remove(4, 5)});
  (void)session.snapshot();  // patched: (1,2) out, (6,7) in
  const obs::Trace t = obs::Tracer::end();
  std::vector<obs::Span> snaps;
  for (const obs::Span& s : t.spans)
    if (s.kind == obs::SpanKind::Snapshot) snaps.push_back(s);
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].b, 0u);
  EXPECT_EQ(snaps[0].c, 0u);
  EXPECT_EQ(snaps[1].b, 1u);
  EXPECT_EQ(snaps[1].c, 2u);
  const std::string json = obs::to_chrome_trace_json(t);
  EXPECT_NE(json.find("\"patched\":1,\"flips\":2"), std::string::npos);
}

TEST(Session, DeletionsReflectedInQueries) {
  // A path 0->1->2->3; deleting the middle edge halves BFS reach.
  const Graph base = reference_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  StreamSession session(base);
  EXPECT_EQ(session.query("BFS", 0), 4.0);
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::remove(1, 2)});
  EXPECT_EQ(session.query("BFS", 0), 2.0);
  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::insert(1, 2)});
  EXPECT_EQ(session.query("BFS", 0), 4.0);
}

}  // namespace
}  // namespace vebo
