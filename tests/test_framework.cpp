// Tests for the Ligra-style framework: VertexSubset, edgemap (push/pull
// equivalence, direction heuristic), vertexmap, Engine system models and
// the partitioned COO.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <tuple>

#include "framework/coo_iter.hpp"
#include "framework/edgemap.hpp"
#include "framework/engine.hpp"
#include "framework/vertex_subset.hpp"
#include "gen/rmat.hpp"
#include "gen/synthetic.hpp"
#include "graph/permute.hpp"
#include "order/hilbert.hpp"
#include "order/vebo.hpp"
#include "stream/session.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace vebo {
namespace {

// --------------------------------------------------------- VertexSubset

TEST(VertexSubset, EmptyAndSingle) {
  auto e = VertexSubset::empty(10);
  EXPECT_TRUE(e.empty_set());
  EXPECT_EQ(e.size(), 0u);
  auto s = VertexSubset::single(10, 3);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(4));
}

TEST(VertexSubset, AllIsDense) {
  auto a = VertexSubset::all(100);
  EXPECT_TRUE(a.is_dense());
  EXPECT_EQ(a.size(), 100u);
  EXPECT_TRUE(a.contains(99));
}

TEST(VertexSubset, FromSparseSortsAndDedupes) {
  auto s = VertexSubset::from_sparse(10, {5, 1, 5, 3});
  EXPECT_EQ(s.size(), 3u);
  auto v = s.vertices();
  EXPECT_EQ(std::vector<VertexId>(v.begin(), v.end()),
            (std::vector<VertexId>{1, 3, 5}));
}

TEST(VertexSubset, ConversionsPreserveMembership) {
  auto s = VertexSubset::from_sparse(128, {0, 64, 127});
  s.to_dense();
  EXPECT_TRUE(s.is_dense());
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(64));
  s.to_sparse();
  EXPECT_FALSE(s.is_dense());
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(127));
}

TEST(VertexSubset, ForEachVisitsAscending) {
  auto s = VertexSubset::from_sparse(50, {40, 10, 20});
  std::vector<VertexId> seen;
  s.for_each([&](VertexId v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<VertexId>{10, 20, 40}));
  s.to_dense();
  seen.clear();
  s.for_each([&](VertexId v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<VertexId>{10, 20, 40}));
}

TEST(VertexSubset, OutOfRangeRejected) {
  EXPECT_THROW(VertexSubset::single(5, 5), Error);
  EXPECT_THROW(VertexSubset::from_sparse(5, {7}), Error);
}

// --------------------------------------------------------------- Engine

TEST(Engine, ModelDefaults) {
  const Graph g = gen::rmat(10, 4, 1);
  Engine ligra(g, SystemModel::Ligra);
  EXPECT_FALSE(ligra.partitioned());
  Engine polymer(g, SystemModel::Polymer);
  EXPECT_EQ(polymer.num_partitions(), 4u);
  Engine gg(g, SystemModel::GraphGrind);
  EXPECT_EQ(gg.num_partitions(), 384u);
}

TEST(Engine, SchedulesPerModel) {
  const Graph g = gen::rmat(8, 4, 1);
  EXPECT_EQ(Engine(g, SystemModel::Ligra).vertex_loop().schedule,
            Schedule::Dynamic);
  EXPECT_EQ(Engine(g, SystemModel::Polymer).vertex_loop().schedule,
            Schedule::Static);
  EXPECT_EQ(Engine(g, SystemModel::GraphGrind).partition_loop().schedule,
            Schedule::Static);
}

TEST(Engine, PartitionsCappedAtVertexCount) {
  const Graph g = gen::figure3_example();  // 6 vertices
  Engine gg(g, SystemModel::GraphGrind);   // asks for 384
  EXPECT_LE(gg.num_partitions(), 6u);
}

TEST(Engine, ToStringNames) {
  EXPECT_EQ(to_string(SystemModel::Ligra), "Ligra");
  EXPECT_EQ(to_string(SystemModel::Polymer), "Polymer");
  EXPECT_EQ(to_string(SystemModel::GraphGrind), "GraphGrind");
  EXPECT_EQ(to_string(EdgeOrder::Hilbert), "Hilbert");
}

TEST(Engine, ExplicitPartitioningOverridesCounts) {
  const Graph g = gen::rmat(9, 4, 3);
  const auto r = order::vebo(g, 12);
  const Graph h = permute(g, r.perm);
  EngineOptions opts;
  opts.partitions = 99;  // must be ignored
  opts.explicit_partitioning = &r.partitioning;
  Engine eng(h, SystemModel::Polymer, opts);
  EXPECT_EQ(eng.num_partitions(), 12u);
  for (VertexId p = 0; p < 12; ++p)
    EXPECT_EQ(eng.partitioning().vertices_in(p), r.part_vertices[p]);
}

TEST(Engine, ExplicitPartitioningMustCoverVertexSet) {
  const Graph g = gen::rmat(9, 4, 3);  // 512 vertices
  // Short of n; past destination 0; two partitions owning 128-255.
  for (order::Partitioning bad :
       {order::partition_from_counts({100, 100}),
        order::Partitioning{{1, 256, 512}},
        order::Partitioning{{0, 256, 128, 512}}}) {
    EngineOptions opts;
    opts.explicit_partitioning = &bad;
    EXPECT_THROW(Engine(g, SystemModel::Polymer, opts), Error);
  }
}

TEST(Engine, ExplicitPartitioningIsCopied) {
  const Graph g = gen::rmat(8, 4, 5);
  Engine eng = [&] {
    const auto r = order::vebo(g, 8);  // dies at scope exit
    EngineOptions opts;
    opts.explicit_partitioning = &r.partitioning;
    return Engine(g, SystemModel::GraphGrind, opts);
  }();
  // The engine must have copied the partitioning: using it after the
  // source object is gone is safe.
  EXPECT_EQ(eng.num_partitions(), 8u);
  EXPECT_EQ(eng.partitioning().boundaries.back(), g.num_vertices());
}

// ------------------------------------------------------- PartitionedCoo

TEST(PartitionedCoo, GroupsByDestinationPartition) {
  const Graph g = gen::rmat(9, 6, 2);
  const auto part = order::partition_by_destination(g, 8);
  const auto coo = build_partitioned_coo(g, part, EdgeOrder::Csr);
  EXPECT_EQ(coo.num_partitions(), 8u);
  EXPECT_EQ(coo.edges.size(), g.num_edges());
  for (std::size_t p = 0; p < 8; ++p)
    for (const Edge& e : coo.partition(p))
      ASSERT_EQ(part.owner(e.dst), p);
}

TEST(PartitionedCoo, CsrOrderWithinPartition) {
  const Graph g = gen::rmat(9, 6, 2);
  const auto part = order::partition_by_destination(g, 4);
  const auto coo = build_partitioned_coo(g, part, EdgeOrder::Csr);
  for (std::size_t p = 0; p < 4; ++p) {
    auto es = coo.partition(p);
    for (std::size_t i = 1; i < es.size(); ++i)
      ASSERT_LE(es[i - 1], es[i]);
  }
}

TEST(PartitionedCoo, HilbertOrderWithinPartition) {
  const Graph g = gen::rmat(9, 6, 2);
  const auto part = order::partition_by_destination(g, 4);
  const auto coo = build_partitioned_coo(g, part, EdgeOrder::Hilbert);
  const int k = order::hilbert_order_for(g.num_vertices());
  for (std::size_t p = 0; p < 4; ++p) {
    auto es = coo.partition(p);
    for (std::size_t i = 1; i < es.size(); ++i)
      ASSERT_LE(order::hilbert_index(es[i - 1].src, es[i - 1].dst, k),
                order::hilbert_index(es[i].src, es[i].dst, k));
  }
}

/// Sort-based oracle for build_partitioned_coo, sharing no code with it:
/// the edges (a multiset) stable-sorted by the partition that owns their
/// destination, then by the edge order's key.
PartitionedCoo reference_partitioned_coo(VertexId n, std::vector<Edge> edges,
                                         const order::Partitioning& part,
                                         EdgeOrder eo) {
  const std::size_t P = part.num_partitions();
  std::vector<std::size_t> owner(n);
  for (std::size_t p = 0; p < P; ++p)
    for (VertexId v = part.boundaries[p]; v < part.boundaries[p + 1]; ++v)
      owner[v] = p;
  const int k = order::hilbert_order_for(n);
  const auto key = [&](const Edge& e) {
    switch (eo) {
      case EdgeOrder::Csr:
        return std::tuple(owner[e.dst], std::uint64_t{0}, e.src, e.dst);
      case EdgeOrder::Csc:
        return std::tuple(owner[e.dst], std::uint64_t{0}, e.dst, e.src);
      case EdgeOrder::Hilbert:
        break;
    }
    return std::tuple(owner[e.dst], order::hilbert_index(e.src, e.dst, k),
                      e.src, e.dst);
  };
  std::stable_sort(edges.begin(), edges.end(),
                   [&](const Edge& a, const Edge& b) {
                     return key(a) < key(b);
                   });
  PartitionedCoo ref;
  ref.offsets.assign(P + 1, 0);
  for (const Edge& e : edges) ++ref.offsets[owner[e.dst] + 1];
  for (std::size_t p = 1; p <= P; ++p) ref.offsets[p] += ref.offsets[p - 1];
  ref.edges = std::move(edges);
  return ref;
}

/// Byte equality of two partitioned COOs: offsets and every edge.
void expect_same_coo(const PartitionedCoo& got, const PartitionedCoo& want) {
  ASSERT_EQ(got.offsets, want.offsets);
  ASSERT_EQ(got.edges.size(), want.edges.size());
  const auto diff = std::ranges::mismatch(got.edges, want.edges).in1;
  EXPECT_TRUE(diff == got.edges.end())
      << "first differing edge at " << (diff - got.edges.begin());
}

constexpr EdgeOrder kEdgeOrders[] = {EdgeOrder::Csr, EdgeOrder::Csc,
                                     EdgeOrder::Hilbert};

/// Every edge order of `g` under `part` against the oracle over `edges`.
void expect_matches_oracle(const Graph& g, const std::vector<Edge>& edges,
                           const order::Partitioning& part) {
  for (EdgeOrder eo : kEdgeOrders) {
    SCOPED_TRACE(to_string(eo));
    expect_same_coo(build_partitioned_coo(g, part, eo),
                    reference_partitioned_coo(g.num_vertices(), edges, part,
                                              eo));
  }
}

// The partitioned COO is byte-identical to the sort oracle for all three
// edge orders, on multigraphs, symmetric graphs, isolated vertices and
// the degenerate sizes, under partitionings with empty partitions.
TEST(PartitionedCoo, MatchesTheSortOracleForEveryOrder) {
  struct Case {
    const char* name;
    EdgeList el;
  };
  std::vector<Case> cases;
  {
    // dedupe = false (the default): duplicate arcs and self loops.
    EdgeList el = gen::rmat_edges(9, 8, 3);
    std::vector<Edge> sorted(el.edges().begin(), el.edges().end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_NE(std::ranges::adjacent_find(sorted), sorted.end());
    EXPECT_TRUE(std::ranges::any_of(
        sorted, [](const Edge& e) { return e.src == e.dst; }));
    cases.push_back({"rmat multigraph", std::move(el)});
  }
  {
    EdgeList el = gen::rmat_edges(8, 6, 5);
    el.symmetrize();
    cases.push_back({"symmetrized", std::move(el)});
  }
  {
    // Vertices 0-9, 21-29 and 36-39 have no edges.
    std::vector<Edge> edges;
    for (VertexId u = 10; u <= 20; ++u)
      for (VertexId v = 30; v <= 35; ++v)
        if ((u + v) % 3 != 0)
          edges.push_back({v % 2 ? u : v, v % 2 ? v : u});
    cases.push_back({"isolated vertices", EdgeList(40, std::move(edges))});
  }
  cases.push_back({"n = 0", EdgeList(0, {})});
  cases.push_back({"n = 1", EdgeList(1, {{0, 0}, {0, 0}})});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const VertexId n = c.el.num_vertices();
    const std::vector<Edge> edges(c.el.edges().begin(), c.el.edges().end());
    const Graph g = Graph::from_edges(c.el);
    {
      SCOPED_TRACE("P = 1");
      expect_matches_oracle(g, edges, order::Partitioning{{0, n}});
    }
    {
      SCOPED_TRACE("Algorithm 1, P = 4");
      expect_matches_oracle(g, edges, order::partition_by_destination(g, 4));
    }
    {
      SCOPED_TRACE("more partitions than vertices");
      const auto part = order::partition_by_destination(g, n + 3);
      EXPECT_GE(std::ranges::count(part.boundaries, n), 4);
      expect_matches_oracle(g, edges, part);
    }
    {
      SCOPED_TRACE("empty first and last partitions");
      expect_matches_oracle(g, edges,
                            order::Partitioning{{0, 0, n / 3, n / 2, n, n}});
    }
    if (n == 0) continue;  // VEBO rejects the empty graph
    {
      SCOPED_TRACE("VEBO, P = 4");
      const order::VeboResult res = order::vebo(g, 4);
      std::vector<Edge> relabelled;
      for (const Edge& e : edges)
        relabelled.push_back({res.perm[e.src], res.perm[e.dst]});
      expect_matches_oracle(permute(g, res.perm), relabelled,
                            res.partitioning);
    }
  }
}

TEST(PartitionedCoo, RejectsAPartitioningThatDoesNotCoverTheVertexSet) {
  const Graph g = gen::rmat(8, 4, 2);
  const VertexId n = g.num_vertices();
  for (EdgeOrder eo : kEdgeOrders) {
    SCOPED_TRACE(to_string(eo));
    EXPECT_THROW(build_partitioned_coo(g, {{0, n / 2, n - 1}}, eo), Error);
    EXPECT_THROW(build_partitioned_coo(g, {{0, n / 2, n + 1}}, eo), Error);
    EXPECT_THROW(build_partitioned_coo(g, {{1, n / 2, n}}, eo), Error);
    EXPECT_THROW(build_partitioned_coo(g, {{0, n / 2, n / 4, n}}, eo), Error);
    EXPECT_THROW(build_partitioned_coo(g, {{0}}, eo), Error);
  }
}

// The partitioned COO of every patched session snapshot equals, in each
// edge order, a fresh build over the full relabel of that version and the
// sort oracle.
TEST(PartitionedCoo, PatchedSnapshotMatchesAFreshBuild) {
  stream::SessionOptions opts;
  opts.model = SystemModel::Polymer;
  // No rebalance and no compaction keep the ordering, so every snapshot
  // after the first one is patched.
  opts.rebalance.edge_drift = 1e9;
  opts.rebalance.vertex_drift = 1e9;
  opts.compact_fraction = 0;
  const Graph base = gen::rmat(9, 8, 11);
  const VertexId n = base.num_vertices();
  stream::StreamSession session(base, opts);
  std::shared_ptr<const Graph> snap = session.shared_snapshot();

  Xoshiro256 rng(5);
  constexpr int kBatches = 4;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<stream::EdgeUpdate> batch;
    for (int i = 0; i < 200; ++i) {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      const auto v = static_cast<VertexId>(rng.next_below(n));
      if (i % 3 == 0) {
        batch.push_back(stream::EdgeUpdate::insert(u, v));
      } else if (const auto nb = base.out_neighbors(u); !nb.empty()) {
        batch.push_back(stream::EdgeUpdate::remove(u, nb[v % nb.size()]));
      }
    }
    session.apply(batch);
    snap = session.shared_snapshot();
    const order::Partitioning& part = session.maintainer().partitioning();
    const Graph fresh =
        session.delta().snapshot(session.maintainer().ordering().perm);
    std::vector<Edge> edges;
    for (VertexId u = 0; u < n; ++u)
      for (VertexId v : fresh.out_neighbors(u)) edges.push_back({u, v});
    for (EdgeOrder eo : kEdgeOrders) {
      SCOPED_TRACE(to_string(eo));
      const PartitionedCoo patched = build_partitioned_coo(*snap, part, eo);
      expect_same_coo(patched, build_partitioned_coo(fresh, part, eo));
      expect_same_coo(patched, reference_partitioned_coo(n, edges, part, eo));
    }
  }
  EXPECT_EQ(session.stats().snapshots_patched,
            static_cast<std::uint64_t>(kBatches));
}

// -------------------------------------------------------------- edgemap

// Counts each (active src -> dst) delivery exactly once per edge.
struct CountingFunctor {
  std::vector<std::atomic<std::uint32_t>>* hits;
  bool update(VertexId, VertexId v) {
    (*hits)[v].fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  bool update_atomic(VertexId u, VertexId v) { return update(u, v); }
  bool cond(VertexId) const { return true; }
};

class EdgeMapDirection : public ::testing::TestWithParam<Direction> {};

TEST_P(EdgeMapDirection, DeliversEveryActiveEdge) {
  const Graph g = gen::rmat(9, 6, 4);
  const VertexId n = g.num_vertices();
  Engine eng(g, SystemModel::Ligra);
  // Frontier: every 3rd vertex.
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < n; v += 3) ids.push_back(v);
  VertexSubset frontier = VertexSubset::from_sparse(n, ids);

  std::vector<std::atomic<std::uint32_t>> hits(n);
  for (auto& h : hits) h.store(0);
  CountingFunctor f{&hits};
  VertexSubset out = edge_map(eng, frontier, f, {.direction = GetParam()});

  // Expected: in-edge count from active sources, per destination.
  for (VertexId v = 0; v < n; ++v) {
    std::uint32_t expect = 0;
    for (VertexId u : g.in_neighbors(v))
      if (u % 3 == 0) ++expect;
    ASSERT_EQ(hits[v].load(), expect) << "v=" << v;
  }
  // Output frontier: exactly the destinations with >= 1 active in-edge.
  for (VertexId v = 0; v < n; ++v)
    ASSERT_EQ(out.contains(v), hits[v].load() > 0);
}

INSTANTIATE_TEST_SUITE_P(Directions, EdgeMapDirection,
                         ::testing::Values(Direction::Push, Direction::Pull,
                                           Direction::Auto),
                         [](const auto& info) {
                           switch (info.param) {
                             case Direction::Push: return "Push";
                             case Direction::Pull: return "Pull";
                             case Direction::Auto: return "Auto";
                           }
                           return "Unknown";
                         });

class EdgeMapModel : public ::testing::TestWithParam<SystemModel> {};

TEST_P(EdgeMapModel, PushPullAgreeAcrossModels) {
  const Graph g = gen::rmat(9, 6, 8);
  const VertexId n = g.num_vertices();
  Engine eng(g, GetParam(), {.partitions = 16});

  auto run = [&](Direction dir) {
    std::vector<VertexId> ids;
    for (VertexId v = 0; v < n; v += 2) ids.push_back(v);
    VertexSubset frontier = VertexSubset::from_sparse(n, ids);
    std::vector<std::atomic<std::uint32_t>> hits(n);
    for (auto& h : hits) h.store(0);
    CountingFunctor f{&hits};
    VertexSubset out = edge_map(eng, frontier, f, {.direction = dir});
    std::vector<std::uint32_t> counts(n);
    for (VertexId v = 0; v < n; ++v) counts[v] = hits[v].load();
    return counts;
  };
  EXPECT_EQ(run(Direction::Push), run(Direction::Pull));
}

INSTANTIATE_TEST_SUITE_P(Models, EdgeMapModel,
                         ::testing::Values(SystemModel::Ligra,
                                           SystemModel::Polymer,
                                           SystemModel::GraphGrind),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

// Cond-gated functor: only even destinations may be touched.
struct EvenOnlyFunctor {
  std::vector<std::atomic<std::uint32_t>>* hits;
  bool update(VertexId, VertexId v) {
    (*hits)[v].fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  bool update_atomic(VertexId u, VertexId v) { return update(u, v); }
  bool cond(VertexId v) const { return v % 2 == 0; }
};

TEST(EdgeMap, CondFiltersDestinations) {
  const Graph g = gen::rmat(8, 5, 3);
  const VertexId n = g.num_vertices();
  Engine eng(g, SystemModel::Ligra);
  VertexSubset frontier = VertexSubset::all(n);
  std::vector<std::atomic<std::uint32_t>> hits(n);
  for (auto& h : hits) h.store(0);
  EvenOnlyFunctor f{&hits};
  edge_map(eng, frontier, f, {.direction = Direction::Push});
  for (VertexId v = 1; v < n; v += 2) ASSERT_EQ(hits[v].load(), 0u);
}

TEST(EdgeMap, EmptyFrontierProducesEmpty) {
  const Graph g = gen::figure3_example();
  Engine eng(g, SystemModel::Ligra);
  VertexSubset frontier = VertexSubset::empty(6);
  std::vector<std::atomic<std::uint32_t>> hits(6);
  for (auto& h : hits) h.store(0);
  CountingFunctor f{&hits};
  VertexSubset out = edge_map(eng, frontier, f);
  EXPECT_TRUE(out.empty_set());
}

// ------------------------------------------------------------ vertexmap

TEST(VertexMap, AppliesToAllMembers) {
  const Graph g = gen::rmat(8, 4, 2);
  Engine eng(g, SystemModel::Polymer);
  const VertexId n = g.num_vertices();
  std::vector<std::atomic<std::uint32_t>> hits(n);
  for (auto& h : hits) h.store(0);
  VertexSubset all = VertexSubset::all(n);
  vertex_map(eng, all, [&](VertexId v) { hits[v].fetch_add(1); });
  for (VertexId v = 0; v < n; ++v) ASSERT_EQ(hits[v].load(), 1u);
}

TEST(VertexMap, SparseSubsetOnly) {
  const Graph g = gen::rmat(8, 4, 2);
  Engine eng(g, SystemModel::Ligra);
  std::vector<std::atomic<std::uint32_t>> hits(g.num_vertices());
  for (auto& h : hits) h.store(0);
  auto s = VertexSubset::from_sparse(g.num_vertices(), {1, 5, 9});
  vertex_map(eng, s, [&](VertexId v) { hits[v].fetch_add(1); });
  EXPECT_EQ(hits[1].load(), 1u);
  EXPECT_EQ(hits[5].load(), 1u);
  EXPECT_EQ(hits[2].load(), 0u);
}

// Functor whose cond() flips false once the destination got one edge:
// the pull path must stop scanning that row (early exit), the push path
// must stop accepting deliveries.
struct FirstOnlyFunctor {
  std::vector<std::atomic<std::uint32_t>>* hits;
  bool update(VertexId, VertexId v) {
    (*hits)[v].fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  bool update_atomic(VertexId /*u*/, VertexId v) {
    if ((*hits)[v].fetch_add(1, std::memory_order_relaxed) == 0) return true;
    (*hits)[v].fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  bool cond(VertexId v) const {
    return (*hits)[v].load(std::memory_order_relaxed) == 0;
  }
};

TEST(EdgeMap, PullEarlyExitDeliversAtMostOneEdgePerDestination) {
  const Graph g = gen::rmat(9, 6, 6);
  const VertexId n = g.num_vertices();
  Engine eng(g, SystemModel::Ligra);
  VertexSubset frontier = VertexSubset::all(n);
  std::vector<std::atomic<std::uint32_t>> hits(n);
  for (auto& h : hits) h.store(0);
  FirstOnlyFunctor f{&hits};
  edge_map(eng, frontier, f,
           {.direction = Direction::Pull, .early_exit = true});
  for (VertexId v = 0; v < n; ++v) ASSERT_LE(hits[v].load(), 1u) << v;
  // Every destination with at least one in-edge got exactly one.
  for (VertexId v = 0; v < n; ++v) {
    if (g.in_degree(v) > 0) {
      ASSERT_EQ(hits[v].load(), 1u) << v;
    }
  }
}

TEST(EdgeMap, PushRespectsCondPerDelivery) {
  const Graph g = gen::rmat(9, 6, 6);
  const VertexId n = g.num_vertices();
  Engine eng(g, SystemModel::Ligra);
  VertexSubset frontier = VertexSubset::all(n);
  std::vector<std::atomic<std::uint32_t>> hits(n);
  for (auto& h : hits) h.store(0);
  FirstOnlyFunctor f{&hits};
  edge_map(eng, frontier, f, {.direction = Direction::Push});
  for (VertexId v = 0; v < n; ++v) ASSERT_LE(hits[v].load(), 1u) << v;
}

}  // namespace
}  // namespace vebo
