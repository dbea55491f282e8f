// Tests for the extended ordering zoo: SlashBurn, the LDG streaming
// partitioner and the BFS/DFS traversal orders — validity, determinism,
// isomorphism transport, and each algorithm's characteristic property.
#include <gtest/gtest.h>

#include "gen/erdos.hpp"
#include "gen/powerlaw.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "gen/synthetic.hpp"
#include "graph/degree.hpp"
#include "graph/permute.hpp"
#include "graph_reference.hpp"
#include "order/ldg.hpp"
#include "order/slashburn.hpp"
#include "order/sort_order.hpp"
#include "order/vebo.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace vebo {
namespace {

// ------------------------------------------------------------ SlashBurn

TEST(SlashBurn, ValidPermutation) {
  const Graph g = gen::rmat(9, 6, 3);
  const Permutation p = order::slashburn(g);
  EXPECT_TRUE(is_permutation(p));
}

TEST(SlashBurn, HubsGetLowestIds) {
  const Graph g = gen::preferential_attachment(2000, 4, 5);
  const Permutation p = order::slashburn(g, {.hub_fraction = 0.01});
  // The first slash removes the top-degree vertices: the single highest
  // degree vertex must be mapped into the first hub block.
  VertexId top = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (g.in_degree(v) > g.in_degree(top)) top = v;
  EXPECT_LT(p[top], 20u);
}

TEST(SlashBurn, DeterministicAndIsomorphic) {
  const Graph g = gen::rmat(9, 4, 7);
  const Permutation a = order::slashburn(g);
  EXPECT_EQ(a, order::slashburn(g));
  EXPECT_TRUE(is_isomorphic_under(g, permute(g, a), a));
}

TEST(SlashBurn, RejectsBadFraction) {
  const Graph g = gen::figure3_example();
  EXPECT_THROW(order::slashburn(g, {.hub_fraction = 0.0}), Error);
  EXPECT_THROW(order::slashburn(g, {.hub_fraction = 0.9}), Error);
}

TEST(SlashBurn, HandlesDisconnectedGraph) {
  EdgeList el(10, {{0, 1}, {2, 3}, {4, 5}}, true);
  const Graph g = Graph::from_edges(std::move(el));
  EXPECT_TRUE(is_permutation(order::slashburn(g)));
}

// ----------------------------------------------------------------- LDG

TEST(Ldg, AssignmentRespectsCapacity) {
  const Graph g = gen::rmat(10, 6, 1);
  const VertexId P = 16;
  const auto r = order::ldg(g, P, {.slack = 1.1});
  EXPECT_TRUE(is_permutation(r.perm));
  const double cap = 1.1 * g.num_vertices() / static_cast<double>(P);
  std::vector<VertexId> fill(P, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_LT(r.assignment[v], P);
    ++fill[r.assignment[v]];
  }
  for (VertexId p = 0; p < P; ++p)
    EXPECT_LE(fill[p], static_cast<VertexId>(cap) + 1);
}

TEST(Ldg, PartitioningMatchesAssignmentCounts) {
  const Graph g = gen::rmat(9, 6, 2);
  const auto r = order::ldg(g, 8);
  std::vector<VertexId> fill(8, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) ++fill[r.assignment[v]];
  for (VertexId p = 0; p < 8; ++p)
    EXPECT_EQ(r.partitioning.vertices_in(p), fill[p]);
  // Relabelling puts each vertex inside its partition's chunk.
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(r.partitioning.owner(r.perm[v]), r.assignment[v]);
}

TEST(Ldg, CutBeatsRandomAssignmentOnClusteredGraph) {
  // Two dense clusters joined by one edge: LDG should cut far fewer
  // edges than a random split.
  std::vector<Edge> edges;
  const VertexId half = 60;
  Xoshiro256 rng(5);
  for (int i = 0; i < 600; ++i) {
    const VertexId a = static_cast<VertexId>(rng.next_below(half));
    const VertexId b = static_cast<VertexId>(rng.next_below(half));
    if (a != b) edges.push_back({a, b});
    const VertexId c = half + static_cast<VertexId>(rng.next_below(half));
    const VertexId d = half + static_cast<VertexId>(rng.next_below(half));
    if (c != d) edges.push_back({c, d});
  }
  edges.push_back({0, half});
  const Graph g = Graph::from_edges(EdgeList(2 * half, std::move(edges), true));
  const auto r = order::ldg(g, 2, {.slack = 1.2});
  EXPECT_LT(r.edge_cut_fraction, 0.25);  // random split would cut ~50%
}

TEST(Ldg, EdgeCutFractionInUnitInterval) {
  const Graph g = gen::erdos_renyi(1000, 8000, 3);
  const auto r = order::ldg(g, 8);
  EXPECT_GE(r.edge_cut_fraction, 0.0);
  EXPECT_LE(r.edge_cut_fraction, 1.0);
}

// ------------------------------------------------------ traversal orders

TEST(TraversalOrder, BfsOrderValidAndRootFirst) {
  const Graph g = gen::rmat(9, 6, 4);
  const Permutation p = order::bfs_order(g, 5);
  EXPECT_TRUE(is_permutation(p));
  EXPECT_EQ(p[5], 0u);
}

TEST(TraversalOrder, BfsOrderOnPathIsIdentityFromZero) {
  const Graph g = gen::path(16);
  const Permutation p = order::bfs_order(g, 0);
  for (VertexId v = 0; v < 16; ++v) EXPECT_EQ(p[v], v);
}

TEST(TraversalOrder, DfsOrderValidAndCoversComponents) {
  EdgeList el(8, {{0, 1}, {1, 2}, {4, 5}}, true);
  const Graph g = Graph::from_edges(std::move(el));
  const Permutation p = order::dfs_order(g, 0);
  EXPECT_TRUE(is_permutation(p));
  EXPECT_EQ(p[0], 0u);
  EXPECT_EQ(p[1], 1u);
  EXPECT_EQ(p[2], 2u);
}

TEST(TraversalOrder, DfsPreorderOnTree) {
  // 0 -> 1, 0 -> 2; 1 -> 3: preorder from 0 is 0,1,3,2.
  EdgeList el(4, {{0, 1}, {0, 2}, {1, 3}}, true);
  const Graph g = Graph::from_edges(std::move(el));
  const Permutation p = order::dfs_order(g, 0);
  EXPECT_EQ(p[0], 0u);
  EXPECT_EQ(p[1], 1u);
  EXPECT_EQ(p[3], 2u);
  EXPECT_EQ(p[2], 3u);
}

// --------------------------------------------- cross-ordering properties

class AnyOrdering : public ::testing::TestWithParam<const char*> {
 protected:
  static Permutation compute(const std::string& name, const Graph& g) {
    if (name == "slashburn") return order::slashburn(g);
    if (name == "ldg") return order::ldg(g, 16).perm;
    if (name == "bfs") return order::bfs_order(g);
    if (name == "dfs") return order::dfs_order(g);
    if (name == "degree") return order::degree_sort_high_to_low(g);
    throw Error("unknown: " + name);
  }
};

INSTANTIATE_TEST_SUITE_P(Zoo, AnyOrdering,
                         ::testing::Values("slashburn", "ldg", "bfs", "dfs",
                                           "degree"));

TEST_P(AnyOrdering, IsomorphismTransport) {
  const Graph g = gen::rmat(9, 5, 11);
  const Permutation p = compute(GetParam(), g);
  ASSERT_TRUE(is_permutation(p));
  const Graph h = permute(g, p);
  EXPECT_TRUE(is_isomorphic_under(g, h, p));
  // Degree multiset preserved.
  auto dg = in_degrees(g);
  auto dh = in_degrees(h);
  std::sort(dg.begin(), dg.end());
  std::sort(dh.begin(), dh.end());
  EXPECT_EQ(dg, dh);
}

TEST_P(AnyOrdering, VeboOnTopRestoresBalance) {
  // Whatever ordering was applied first, VEBO applied afterwards must
  // deliver its balance guarantee (the Fig. 5 Random+VEBO property,
  // generalized across the zoo).
  const Graph g = gen::zipf_directed(20000, 9, {.s = 1.0, .ranks = 256});
  const Permutation p = compute(GetParam(), g);
  const Graph h = permute(g, p);
  const auto r = order::vebo(h, 48);
  EXPECT_LE(r.edge_imbalance(), 1u);
  EXPECT_LE(r.vertex_imbalance(), 1u);
}

}  // namespace
}  // namespace vebo
