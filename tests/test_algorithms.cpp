// Algorithm correctness: each of the 8 evaluation algorithms against its
// sequential reference, across all three system models, plus invariance
// of results under vertex reordering (the property that makes reordering
// legal at all: the reordered graph is isomorphic, so results transport
// through the permutation).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>

#include "algorithms/bellman_ford.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/reference.hpp"
#include "algorithms/registry.hpp"
#include "algorithms/spmv.hpp"
#include "framework/cancel.hpp"
#include "framework/engine.hpp"
#include "gen/erdos.hpp"
#include "gen/powerlaw.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "gen/synthetic.hpp"
#include "graph/permute.hpp"
#include "graph_reference.hpp"
#include "obs/trace.hpp"
#include "order/vebo.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace vebo {
namespace {

using algo::QueryParams;
using algo::QueryPayload;

/// Runs the spec registered under `code`: the algorithms' one entry point.
QueryPayload run(const Engine& eng, const std::string& code,
                 const QueryParams& params = {}) {
  return algo::spec(code).invoke(eng, params);
}

/// The spec's checksum fold of `p` (reached count, component count...).
double checksum(const std::string& code, const QueryPayload& p) {
  return algo::spec(code).checksum(p);
}

QueryParams from(VertexId source) {
  return QueryParams().set("source", source);
}

/// Each Iteration span's frontier size (b), indexed by its round (a). The
/// table has one slot per span, so the rounds must number 0..count-1.
std::vector<std::uint64_t> frontier_by_round(const obs::Trace& t) {
  const auto iteration = [](const obs::Span& s) {
    return s.kind == obs::SpanKind::Iteration;
  };
  std::vector<std::uint64_t> sizes(static_cast<std::size_t>(
      std::count_if(t.spans.begin(), t.spans.end(), iteration)));
  for (const obs::Span& s : t.spans)
    if (iteration(s)) sizes.at(s.a) = s.b;
  return sizes;
}

class AlgoModels : public ::testing::TestWithParam<SystemModel> {
 protected:
  /// Ligra keeps its default options, so the oracles check the
  /// unpartitioned engine every Ligra caller builds (dense gathers on
  /// the edge-balanced dense_chunks()); the partitioned models get 16
  /// partitions.
  Engine make_engine(const Graph& g) const {
    if (GetParam() == SystemModel::Ligra) return Engine(g, GetParam());
    return Engine(g, GetParam(), {.partitions = 16});
  }
};

INSTANTIATE_TEST_SUITE_P(Models, AlgoModels,
                         ::testing::Values(SystemModel::Ligra,
                                           SystemModel::Polymer,
                                           SystemModel::GraphGrind),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

// ------------------------------------------------------------------ BFS

TEST_P(AlgoModels, BfsMatchesReferenceLevels) {
  const Graph g = gen::rmat(10, 6, 3);
  Engine eng = make_engine(g);
  const QueryPayload res = run(eng, "BFS", from(0));
  const auto ref = algo::ref::bfs_levels(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(res.ids()[v], ref[v]) << "v=" << v;
}

TEST(Bfs, PathGraphLevels) {
  const Graph g = gen::path(10);
  Engine eng(g, SystemModel::Ligra);
  const QueryPayload res = run(eng, "BFS", from(0));
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(res.ids()[v], v);
  EXPECT_EQ(checksum("BFS", res), 10.0);
}

TEST(Bfs, UnreachableVerticesStayInvalid) {
  EdgeList el(4, {{0, 1}}, true);
  const Graph g = Graph::from_edges(std::move(el));
  Engine eng(g, SystemModel::Ligra);
  const QueryPayload res = run(eng, "BFS", from(0));
  EXPECT_EQ(checksum("BFS", res), 2.0);
  EXPECT_EQ(res.ids()[2], kInvalidVertex);
  EXPECT_EQ(res.ids()[3], kInvalidVertex);
}

// ------------------------------------------------------------------- CC

TEST_P(AlgoModels, CcMatchesUnionFind) {
  const Graph g = gen::erdos_renyi(2000, 3000, 7);  // sparse -> many comps
  Engine eng = make_engine(g);
  const auto ref = algo::ref::wcc_labels(g);
  EXPECT_EQ(run(eng, "CC").ids(), ref);
}

TEST(Cc, CountsComponents) {
  EdgeList el(7, {{0, 1}, {1, 2}, {3, 4}}, true);
  const Graph g = Graph::from_edges(std::move(el));
  Engine eng(g, SystemModel::Ligra);
  const QueryPayload res = run(eng, "CC");
  EXPECT_EQ(checksum("CC", res), 4.0);  // {0,1,2}, {3,4}, {5}, {6}
  EXPECT_EQ(res.ids()[2], 0u);
  EXPECT_EQ(res.ids()[4], 3u);
  EXPECT_EQ(res.ids()[5], 5u);
}

// CC's dense rounds run on edge_map's dense scheduler, which on Ligra is
// the edge-balanced dense_chunks(); the labels stay exact at every width.
TEST(Cc, LigraDenseRoundsMatchUnionFindAtEveryWidth) {
  const Graph g = gen::rmat(12, 8, 5);
  const auto ref = algo::ref::wcc_labels(g);
  ThreadPool one(1), two(2), four(4);
  for (ThreadPool* pool : {&one, &two, &four}) {
    SCOPED_TRACE(pool->num_threads());
    const Engine eng(g, SystemModel::Ligra, {.pool = pool});
    obs::ThreadTrace tt;
    const QueryPayload res = run(eng, "CC");
    const obs::Trace t = tt.finish();
    EXPECT_EQ(res.ids(), ref);
    // Round 0's frontier is complete and round 1's alone passes the
    // dense threshold, so both take the dense branch.
    const std::vector<std::uint64_t> frontier = frontier_by_round(t);
    ASSERT_GE(frontier.size(), 2u);
    EXPECT_EQ(frontier[0], g.num_vertices());
    EXPECT_GT(frontier[1], eng.dense_threshold());
  }
}

TEST(Cc, DirectedEdgesYieldWeakComponents) {
  // Chain directed one way: still one weak component.
  const Graph g = gen::path(64);
  Engine eng(g, SystemModel::GraphGrind, {.partitions = 8});
  EXPECT_EQ(checksum("CC", run(eng, "CC")), 1.0);
}

// ------------------------------------------------------------------- PR

TEST_P(AlgoModels, PagerankMatchesReference) {
  const Graph g = gen::rmat(10, 6, 9);
  Engine eng = make_engine(g);
  const QueryPayload res =
      run(eng, "PR", QueryParams().set("iterations", 10));
  const auto ref = algo::ref::pagerank(g, 10);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_NEAR(res.doubles()[v], ref[v], 1e-12) << "v=" << v;
}

TEST(Pagerank, MassConservedOnCycle) {
  // On a cycle every vertex has out-degree 1: total mass stays 1.
  const Graph g = gen::cycle(100);
  Engine eng(g, SystemModel::Ligra);
  const QueryPayload res =
      run(eng, "PR", QueryParams().set("iterations", 20));
  EXPECT_NEAR(checksum("PR", res), 1.0, 1e-9);  // total mass
}

TEST(Pagerank, HubReceivesHighestRank) {
  const Graph g = gen::star(50);  // all leaves point at vertex 0
  Engine eng(g, SystemModel::Ligra);
  const std::vector<double> rank = run(eng, "PR").doubles();
  for (VertexId v = 1; v < 50; ++v) EXPECT_GT(rank[0], rank[v]);
}

TEST(Pagerank, PartitionTimesCoverAllPartitions) {
  const Graph g = gen::rmat(10, 6, 4);
  Engine eng(g, SystemModel::GraphGrind, {.partitions = 32});
  const auto times = algo::pagerank_partition_times(eng, 2);
  EXPECT_EQ(times.size(), 32u);
  for (double t : times) EXPECT_GE(t, 0.0);
}

// ------------------------------------------------------------------ PRD

TEST_P(AlgoModels, PagerankDeltaWithZeroEpsilonEqualsPowerMethod) {
  // With epsilon=0 no vertex ever leaves the frontier, so accumulated
  // deltas reproduce the power method exactly.
  const Graph g = gen::rmat(9, 6, 6);
  Engine eng = make_engine(g);
  const QueryPayload prd = run(
      eng, "PRD", QueryParams().set("max_iters", 8).set("epsilon", 0.0));
  const auto ref = algo::ref::pagerank(g, 8);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_NEAR(prd.doubles()[v], ref[v], 1e-10) << "v=" << v;
}

// Each traced PRD iteration records its frontier size (b); with epsilon
// > 0 converged vertices leave, so the last round's frontier is smaller
// than the first's.
TEST(PagerankDelta, FrontierShrinks) {
  const Graph g = gen::rmat(10, 6, 7);
  Engine eng(g, SystemModel::Ligra);
  obs::ThreadTrace tt;
  run(eng, "PRD", QueryParams().set("max_iters", 10).set("epsilon", 1e-2));
  const std::vector<std::uint64_t> active = frontier_by_round(tt.finish());
  ASSERT_GE(active.size(), 2u);
  EXPECT_EQ(active.front(), g.num_vertices());
  EXPECT_LT(active.back(), active.front());
}

// ----------------------------------------------------------------- SPMV

TEST_P(AlgoModels, SpmvMatchesReference) {
  const Graph g = gen::rmat(9, 6, 8);
  Engine eng = make_engine(g);
  // The spec multiplies the uniform vector x = 1/n.
  const std::vector<double> x(g.num_vertices(),
                              1.0 / static_cast<double>(g.num_vertices()));
  const QueryPayload res = run(eng, "SPMV");
  const auto ref = algo::ref::spmv(g, x);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_NEAR(res.doubles()[v], ref[v], 1e-9);
}

// BF's one-thread bucket pass sizes its ring from these bounds and keeps
// one label per bucket, so it relies on every weight being a whole number
// inside them; it sums the integer form, which must be the same weight.
TEST(Spmv, EdgeWeightDeterministicAndBounded) {
  const auto check = [](VertexId u, VertexId v) {
    const double w = algo::edge_weight(u, v);
    ASSERT_GE(w, algo::kMinEdgeWeight) << u << "->" << v;
    ASSERT_LE(w, algo::kMaxEdgeWeight) << u << "->" << v;
    ASSERT_EQ(w, std::floor(w)) << u << "->" << v;
    ASSERT_EQ(w, algo::edge_weight(u, v));
    ASSERT_EQ(w, static_cast<double>(algo::edge_weight_int(u, v)))
        << u << "->" << v;
  };
  for (VertexId u = 0; u < 50; ++u)
    for (VertexId v = 0; v < 50; v += 7) check(u, v);
  constexpr VertexId kTop = ~VertexId{0};
  for (VertexId u = kTop - 40; u != 0; ++u)  // wraps to 0 after kTop
    for (VertexId v : {VertexId{0}, VertexId{1}, kTop - 1, kTop}) {
      check(u, v);
      check(v, u);
    }
  Xoshiro256 rng(20);
  constexpr auto kTopWeight = static_cast<std::size_t>(algo::kMaxEdgeWeight);
  std::array<int, kTopWeight + 1> seen{};
  for (int i = 0; i < 20000; ++i) {
    const auto u = static_cast<VertexId>(rng());
    const auto v = static_cast<VertexId>(rng());
    check(u, v);
    ++seen[static_cast<std::size_t>(algo::edge_weight(u, v))];
  }
  // Both ends of the range occur, so the bounds are tight.
  EXPECT_GT(seen[static_cast<std::size_t>(algo::kMinEdgeWeight)], 0);
  EXPECT_GT(seen[kTopWeight], 0);
}

// ------------------------------------------------------------------- BF

// Vertex 0 has no out-edges in rmat(9, 6, 4); source 1 reaches 347 of
// the 512 vertices in 7 rounds, 5 of them dense enough for Auto to pull.
// Every distance is a sum of whole-number weights, exact in a double, so
// each run equals the oracle bit for bit.
TEST_P(AlgoModels, BellmanFordMatchesDijkstra) {
  const Graph g = gen::rmat(9, 6, 4);
  Engine eng = make_engine(g);
  EXPECT_EQ(run(eng, "BF", from(1)).doubles(), algo::ref::dijkstra(g, 1));
}

double finite_count(const std::vector<double>& dist) {
  return static_cast<double>(
      std::count_if(dist.begin(), dist.end(),
                    [](double d) { return d != algo::kUnreachable; }));
}

// A one-thread engine settles by buckets: no edge_map step, one
// Iteration span carrying the buckets and vertices settled, and the same
// distances as the four-thread Bellman-Ford and the oracle.
TEST_P(AlgoModels, BellmanFordOneThreadSettlesByBucketsAndMatchesFourThreads) {
  const Graph g = gen::rmat(9, 6, 4);
  ThreadPool one(1), four(4);
  Engine eng1(g, GetParam(), {.partitions = 16, .pool = &one});
  Engine eng4(g, GetParam(), {.partitions = 16, .pool = &four});
  obs::ThreadTrace tt;
  const QueryPayload res = run(eng1, "BF", from(1));
  const obs::Trace t = tt.finish();
  const auto ref = algo::ref::dijkstra(g, 1);
  const double reached = checksum("BF", res);
  ASSERT_GT(reached, g.num_vertices() / 2);
  EXPECT_EQ(res.doubles(), ref);
  EXPECT_EQ(reached, finite_count(ref));
  // Whole-number labels: one settled bucket per distinct distance.
  std::vector<double> levels;
  for (double d : ref)
    if (d != algo::kUnreachable) levels.push_back(d);
  std::sort(levels.begin(), levels.end());
  const auto buckets = static_cast<std::uint64_t>(
      std::unique(levels.begin(), levels.end()) - levels.begin());
  std::size_t passes = 0;
  for (const obs::Span& s : t.spans) {
    EXPECT_NE(s.kind, obs::SpanKind::EdgeMap);
    if (s.kind != obs::SpanKind::Iteration) continue;
    ++passes;
    EXPECT_EQ(s.a, buckets);  // buckets settled
    EXPECT_EQ(static_cast<double>(s.b), reached);
  }
  EXPECT_EQ(passes, 1u);

  // Four threads keep the heuristic, which pulls the dense rounds; both
  // runs converge to the same minimum over path sums.
  obs::ThreadTrace tt4;
  const QueryPayload res4 = run(eng4, "BF", from(1));
  const obs::Trace t4 = tt4.finish();
  EXPECT_EQ(res.doubles(), res4.doubles());
  std::size_t pulls = 0;
  for (const obs::Span& s : t4.spans) {
    if (s.kind != obs::SpanKind::EdgeMap) continue;
    EXPECT_EQ(s.flags & 4, 0);
    pulls += s.direction == 2;
  }
  EXPECT_GT(pulls, 0u);
}

// Cases the bucket ring must get right, each against the oracle and the
// four-thread run: a source with no out-edges, unreachable vertices,
// self loops and duplicate arcs, a single vertex, and a road grid whose
// long paths wrap the 33-slot ring many times.
TEST_P(AlgoModels, BellmanFordOneThreadEdgeCases) {
  ThreadPool one(1), four(4);
  const auto check = [&](const Graph& g, VertexId source) {
    Engine eng1(g, GetParam(), {.partitions = 4, .pool = &one});
    Engine eng4(g, GetParam(), {.partitions = 4, .pool = &four});
    const QueryPayload res = run(eng1, "BF", from(source));
    const auto ref = algo::ref::dijkstra(g, source);
    EXPECT_EQ(res.doubles(), ref) << "source " << source;
    EXPECT_EQ(checksum("BF", res), finite_count(ref)) << "source " << source;
    EXPECT_EQ(res.doubles(), run(eng4, "BF", from(source)).doubles())
        << "source " << source;
    return res;
  };

  const Graph rmat = gen::rmat(9, 6, 4);
  ASSERT_EQ(rmat.out_degree(0), 0u);
  EXPECT_EQ(checksum("BF", check(rmat, 0)), 1.0);
  {  // The sink's pass settles one bucket.
    const Engine eng1(rmat, GetParam(), {.partitions = 4, .pool = &one});
    obs::ThreadTrace tt;
    run(eng1, "BF", from(0));
    const obs::Trace t = tt.finish();
    std::size_t passes = 0;
    for (const obs::Span& s : t.spans) {
      if (s.kind != obs::SpanKind::Iteration) continue;
      ++passes;
      EXPECT_EQ(s.a, 1u);
    }
    EXPECT_EQ(passes, 1u);
  }
  EXPECT_LT(checksum("BF", check(rmat, 1)), rmat.num_vertices());

  // rmat keeps duplicates and self loops unless asked to drop them.
  const Graph multi = gen::rmat(8, 8, 9);
  std::size_t loops = 0, dups = 0;
  for (VertexId u = 0; u < multi.num_vertices(); ++u) {
    const auto nbrs = multi.out_neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      loops += nbrs[i] == u;
      dups += i > 0 && nbrs[i] == nbrs[i - 1];
    }
  }
  ASSERT_GT(loops, 0u);
  ASSERT_GT(dups, 0u);
  for (VertexId s : {VertexId{1}, VertexId{17}, VertexId{200}}) check(multi, s);

  const Graph single = Graph::from_edges(EdgeList(1, {{0, 0}}));
  EXPECT_EQ(check(single, 0).doubles(), std::vector<double>{0.0});

  const Graph road = gen::road_grid(40, 40, 3);
  const std::vector<double> far = check(road, 0).doubles();
  EXPECT_GT(*std::max_element(far.begin(), far.end()),
            8 * algo::kMaxEdgeWeight);
}

// While it scans bucket entry i, the pass requests the label and offsets
// of entry i + 16 and the row of entry i + 8, whose offsets it requested
// eight entries earlier. An entry goes through both stages only in a
// bucket of more than 16 entries, and both stages run in one step only
// from entry 8 of a bucket of more than 24. The other BF tests' graphs
// hold at most 23 vertices per distance; rmat(14, 8, 3) relabelled by
// VEBO holds up to 802 from source 1, and a bucket holds at least its
// distance's vertices.
TEST_P(AlgoModels, BellmanFordOneThreadLongBuckets) {
  const Graph raw = gen::rmat(14, 8, 3);
  const Graph g = permute(raw, order::vebo(raw, 4).perm);
  ThreadPool one(1), four(4);
  Engine eng1(g, GetParam(), {.partitions = 4, .pool = &one});
  Engine eng4(g, GetParam(), {.partitions = 4, .pool = &four});
  obs::ThreadTrace tt;
  const std::vector<double> dist = run(eng1, "BF", from(1)).doubles();
  const obs::Trace t = tt.finish();
  for (const obs::Span& s : t.spans)
    EXPECT_NE(s.kind, obs::SpanKind::EdgeMap);  // the bucket pass ran
  EXPECT_EQ(dist, algo::ref::dijkstra(g, 1));
  EXPECT_EQ(dist, run(eng4, "BF", from(1)).doubles());
  std::map<double, std::size_t> per_distance;
  for (const double d : dist)
    if (d != algo::kUnreachable) ++per_distance[d];
  std::size_t largest = 0;
  for (const auto& [d, count] : per_distance)
    largest = std::max(largest, count);
  EXPECT_GT(largest, 24u);
}

// The pass polls the bound query context once per bucket.
TEST(BellmanFord, OneThreadPassObservesCancellation) {
  const Graph g = gen::rmat(9, 6, 4);
  ThreadPool one(1);
  Engine eng(g, SystemModel::Polymer, {.partitions = 4, .pool = &one});
  CancelSource src;
  src.cancel();
  QueryContext ctx;
  ctx.set_cancel_token(src.token());
  EXPECT_THROW(algo::spec("BF").invoke(eng, from(1), ctx), CancelledError);
}

TEST(BellmanFord, RoadNetwork) {
  const Graph g = gen::road_grid(24, 24, 2);
  Engine eng(g, SystemModel::Polymer, {.partitions = 4});
  EXPECT_EQ(run(eng, "BF", from(0)).doubles(), algo::ref::dijkstra(g, 0));
}

// ------------------------------------------------------------------- BC

TEST_P(AlgoModels, BetweennessMatchesBrandes) {
  const Graph g = gen::rmat(9, 4, 10);
  Engine eng = make_engine(g);
  const QueryPayload res = run(eng, "BC", from(0));
  const auto ref = algo::ref::brandes_dependency(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_NEAR(res.doubles()[v], ref[v], 1e-6) << "v=" << v;
}

TEST(Betweenness, PathGraphDependencies) {
  // On a directed path 0->1->2->3->4 from source 0: delta[v] counts the
  // downstream vertices: delta[1]=3, delta[2]=2, delta[3]=1, delta[4]=0.
  const Graph g = gen::path(5);
  Engine eng(g, SystemModel::Ligra);
  const std::vector<double> dependency = run(eng, "BC", from(0)).doubles();
  EXPECT_NEAR(dependency[1], 3.0, 1e-12);
  EXPECT_NEAR(dependency[2], 2.0, 1e-12);
  EXPECT_NEAR(dependency[3], 1.0, 1e-12);
  EXPECT_NEAR(dependency[4], 0.0, 1e-12);
}

// ------------------------------------------------------------------- BP

TEST_P(AlgoModels, BeliefPropagationDeterministicAcrossModels) {
  const Graph g = gen::rmat(9, 5, 11);
  Engine eng = make_engine(g);
  const QueryParams ten = QueryParams().set("iterations", 10);
  obs::ThreadTrace tt;
  const QueryPayload res = run(eng, "BP", ten);
  const obs::Trace t = tt.finish();
  EXPECT_EQ(std::count_if(t.spans.begin(), t.spans.end(),
                          [](const obs::Span& s) {
                            return s.kind == obs::SpanKind::Iteration;
                          }),
            10);
  // Every model gathers through edge_fold in the same per-destination
  // order, so the Ligra (unpartitioned) engine's answer is exact.
  Engine ligra(g, SystemModel::Ligra);
  EXPECT_EQ(res.doubles(), run(ligra, "BP", ten).doubles());
}

// ------------------------------------------- dense gather, every model

// SpMV and BP gather through edge_fold on every model, and the fold adds
// each destination's in-edges in ascending source order whatever the
// partitioning or schedule: both payloads are bit-identical across
// Ligra, Polymer (4 partitions) and GraphGrind (384) at pool widths 1, 2
// and 4. n is not a power of two: SPMV's x = 1/n is then inexact, so a
// different summation order would show in the low bits (with n = 2^k
// every whole-weight product is exact and any order gives the same sum).
TEST(DenseGather, SpmvAndBpBitIdenticalAcrossModelsAndWidths) {
  const Graph g = gen::chung_lu(3001, 2.1, 8.0, 23);
  ThreadPool one(1), two(2), four(4);
  for (const char* code : {"SPMV", "BP"}) {
    SCOPED_TRACE(code);
    const algo::AlgorithmSpec& s = algo::spec(code);
    const algo::QueryPayload want =
        s.invoke(Engine(g, SystemModel::Ligra, {.pool = &one}));
    ASSERT_EQ(want.doubles().size(), g.num_vertices());
    for (ThreadPool* pool : {&one, &two, &four}) {
      for (SystemModel m : {SystemModel::Ligra, SystemModel::Polymer,
                            SystemModel::GraphGrind}) {
        SCOPED_TRACE(to_string(m) + " x" +
                     std::to_string(pool->num_threads()));
        const Engine eng(g, m, {.pool = pool});
        const algo::QueryPayload got = s.invoke(eng);
        EXPECT_TRUE(oracle::same_bytes(got.doubles(), want.doubles()));
      }
    }
  }
}

// Round k's residual is the mean |belief change| between the beliefs
// after k - 1 and after k rounds.
TEST(BeliefPropagation, ConvergesOnTree) {
  const Graph g = gen::path(32);
  Engine eng(g, SystemModel::Ligra);
  const auto residual = [&](int k) {
    const std::vector<double> before =
        run(eng, "BP", QueryParams().set("iterations", k - 1)).doubles();
    const std::vector<double> after =
        run(eng, "BP", QueryParams().set("iterations", k)).doubles();
    double change = 0;
    for (std::size_t v = 0; v < after.size(); ++v)
      change += std::abs(after[v] - before[v]);
    return change / static_cast<double>(after.size());
  };
  const double r5 = residual(5);
  const double r40 = residual(40);
  EXPECT_LT(r40, r5 + 1e-9);
  EXPECT_LT(r40, 1e-6);  // converged on a chain
}

// ---------------------------------------------- repeated-run determinism

// A payload is the answer alone, so rerunning a query on the same engine
// returns an equal payload for every spec, on every model, at pool widths
// 1, 2 and 4, even where the schedule varies the rounds a run takes (CC's
// and BF's pushes at widths 2 and 4). Graphs are relabelled by VEBO with
// P = 4, and Polymer runs on VEBO's own partitions.
TEST(PayloadDeterminism, RepeatedRunsAreIdentical) {
  ThreadPool one(1), two(2), four(4);
  const auto check = [&](const Graph& base) {
    const order::VeboResult r = order::vebo(base, 4);
    const Graph g = permute(base, r.perm);
    for (ThreadPool* pool : {&one, &two, &four}) {
      for (SystemModel m : {SystemModel::Ligra, SystemModel::Polymer,
                            SystemModel::GraphGrind}) {
        EngineOptions eo;
        eo.pool = pool;
        if (m == SystemModel::Polymer)
          eo.explicit_partitioning = &r.partitioning;
        const Engine eng(g, m, eo);
        for (const algo::AlgorithmSpec& s : algo::specs()) {
          SCOPED_TRACE(s.code + " " + to_string(m) + " x" +
                       std::to_string(pool->num_threads()));
          QueryParams params;
          if (s.params.find("source") != nullptr) params.set("source", 7);
          const QueryPayload first = s.invoke(eng, params);
          for (int rerun = 1; rerun < 7; ++rerun)
            EXPECT_TRUE(s.invoke(eng, params) == first) << "rerun " << rerun;
        }
      }
    }
  };
  check(gen::rmat(12, 8, 5));
  check(gen::road_grid(64, 64, 3));
}

// ----------------------------------------------- reordering invariance

class ReorderInvariance : public ::testing::TestWithParam<SystemModel> {};

INSTANTIATE_TEST_SUITE_P(Models, ReorderInvariance,
                         ::testing::Values(SystemModel::Ligra,
                                           SystemModel::Polymer,
                                           SystemModel::GraphGrind),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST_P(ReorderInvariance, BfsLevelsTransportThroughVebo) {
  const Graph g = gen::rmat(10, 6, 12);
  const auto r = order::vebo(g, 48);
  const Graph h = permute(g, r.perm);
  Engine eg(g, GetParam(), {.partitions = 16});
  Engine eh(h, GetParam(), {.partitions = 16});
  const QueryPayload a = run(eg, "BFS", from(0));
  const QueryPayload b = run(eh, "BFS", from(r.perm[0]));
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(a.ids()[v], b.ids()[r.perm[v]]) << "v=" << v;
  EXPECT_EQ(checksum("BFS", a), checksum("BFS", b));
}

TEST_P(ReorderInvariance, PagerankTransportsThroughVebo) {
  const Graph g = gen::rmat(9, 6, 13);
  const auto r = order::vebo(g, 48);
  const Graph h = permute(g, r.perm);
  Engine eg(g, GetParam(), {.partitions = 16});
  Engine eh(h, GetParam(), {.partitions = 16});
  const QueryParams eight = QueryParams().set("iterations", 8);
  const QueryPayload a = run(eg, "PR", eight);
  const QueryPayload b = run(eh, "PR", eight);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_NEAR(a.doubles()[v], b.doubles()[r.perm[v]], 1e-12);
}

TEST_P(ReorderInvariance, CcComponentCountStableUnderVebo) {
  const Graph g = gen::erdos_renyi(3000, 4000, 21);
  const auto r = order::vebo(g, 48);
  const Graph h = permute(g, r.perm);
  Engine eg(g, GetParam(), {.partitions = 16});
  Engine eh(h, GetParam(), {.partitions = 16});
  EXPECT_EQ(checksum("CC", run(eg, "CC")), checksum("CC", run(eh, "CC")));
}

// --------------------------------------------------------------- registry

TEST(Registry, HasAllEightAlgorithms) {
  const auto& algos = algo::specs();
  ASSERT_EQ(algos.size(), 8u);
  const char* expected[] = {"BC", "CC", "PR", "BFS",
                            "PRD", "SPMV", "BF", "BP"};
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(algos[i].code, expected[i]);
}

TEST(Registry, LookupAndRun) {
  const Graph g = gen::rmat(8, 4, 1);
  Engine eng(g, SystemModel::Ligra);
  const auto& pr = algo::spec("PR");
  const double mass = pr.checksum(pr.invoke(eng));
  EXPECT_GT(mass, 0.0);
  EXPECT_THROW(algo::spec("XX"), Error);
}

TEST(Registry, AllRunnersExecuteOnSmallGraph) {
  const Graph g = gen::rmat(8, 4, 5);
  Engine eng(g, SystemModel::GraphGrind, {.partitions = 8});
  for (const auto& a : algo::specs()) {
    SCOPED_TRACE(a.code);
    const double checksum = a.checksum(a.invoke(eng));
    EXPECT_TRUE(std::isfinite(checksum));
  }
}

}  // namespace
}  // namespace vebo
