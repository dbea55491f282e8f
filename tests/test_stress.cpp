// Randomized stress tests and degenerate-input coverage: many seeds,
// extreme shapes (single vertex, no edges, all-isolated, P >> n), and
// truncation/failure injection for the adjacency reader.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "algorithms/reference.hpp"
#include "algorithms/registry.hpp"
#include "framework/engine.hpp"
#include "gen/erdos.hpp"
#include "gen/rmat.hpp"
#include "gen/synthetic.hpp"
#include "graph/io.hpp"
#include "graph/permute.hpp"
#include "order/vebo.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace vebo {
namespace {

using algo::QueryParams;
using algo::QueryPayload;

QueryPayload run(const Engine& eng, const std::string& code,
                 const QueryParams& params = {}) {
  return algo::spec(code).invoke(eng, params);
}

double checksum(const Engine& eng, const std::string& code) {
  const algo::AlgorithmSpec& s = algo::spec(code);
  return s.checksum(s.invoke(eng));
}

// ------------------------------------------------- seed sweeps

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST_P(SeedSweep, BfsAgreesWithReference) {
  const Graph g = gen::erdos_renyi(700, 2400, GetParam());
  Engine eng(g, SystemModel::Ligra);
  const auto src = static_cast<VertexId>(GetParam() % 700);
  const QueryPayload res = run(eng, "BFS", QueryParams().set("source", src));
  const auto ref = algo::ref::bfs_levels(g, src);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(res.ids()[v], ref[v]);
}

TEST_P(SeedSweep, CcAgreesWithUnionFind) {
  const Graph g = gen::erdos_renyi(600, 700, GetParam());  // fragmented
  Engine eng(g, SystemModel::GraphGrind, {.partitions = 8});
  EXPECT_EQ(run(eng, "CC").ids(), algo::ref::wcc_labels(g));
}

TEST_P(SeedSweep, VeboAlwaysValidAndConsistent) {
  const Graph g = gen::rmat(8, 4, GetParam());
  for (VertexId P : {1u, 2u, 5u, 31u, 256u}) {
    const auto r = order::vebo(g, P);
    ASSERT_TRUE(is_permutation(r.perm)) << "P=" << P;
    EdgeId edges = 0;
    for (EdgeId e : r.part_edges) edges += e;
    ASSERT_EQ(edges, g.num_edges()) << "P=" << P;
  }
}

TEST_P(SeedSweep, PagerankMassBounded) {
  const Graph g = gen::rmat(8, 6, GetParam());
  Engine eng(g, SystemModel::Polymer, {.partitions = 4});
  const QueryPayload pr = run(eng, "PR", QueryParams().set("iterations", 15));
  // Dangling mass leaks (Ligra convention), so total is in (0, 1].
  const double mass = algo::spec("PR").checksum(pr);
  EXPECT_GT(mass, 0.0);
  EXPECT_LE(mass, 1.0 + 1e-9);
  for (double r : pr.doubles()) ASSERT_GE(r, 0.0);
}

// ------------------------------------------------- degenerate shapes

TEST(Degenerate, SingleVertexNoEdges) {
  const Graph g = Graph::from_edges(EdgeList(1, {}, true));
  const auto r = order::vebo(g, 1);
  EXPECT_EQ(r.perm[0], 0u);
  Engine eng(g, SystemModel::Ligra);
  EXPECT_EQ(checksum(eng, "BFS"), 1.0);  // reached
  EXPECT_EQ(checksum(eng, "CC"), 1.0);   // components
}

TEST(Degenerate, AllIsolatedVertices) {
  const Graph g = Graph::from_edges(EdgeList(100, {}, true));
  const auto r = order::vebo(g, 7);
  EXPECT_TRUE(is_permutation(r.perm));
  EXPECT_LE(r.vertex_imbalance(), 1u);  // phase 2 spreads them evenly
  EXPECT_EQ(r.edge_imbalance(), 0u);
}

TEST(Degenerate, MorePartitionsThanVertices) {
  const Graph g = gen::figure3_example();  // 6 vertices
  const auto r = order::vebo(g, 100);
  EXPECT_TRUE(is_permutation(r.perm));
  // 6 of 100 partitions hold one vertex each.
  VertexId nonempty = 0;
  for (VertexId c : r.part_vertices)
    if (c > 0) ++nonempty;
  EXPECT_EQ(nonempty, 6u);
}

TEST(Degenerate, SelfLoopsSurviveThePipeline) {
  EdgeList el(4, {{0, 0}, {0, 1}, {1, 1}, {2, 3}}, true);
  const Graph g = Graph::from_edges(std::move(el));
  EXPECT_EQ(g.num_edges(), 4u);
  const Graph h = order::vebo_reorder(g, 2);
  EXPECT_EQ(h.num_edges(), 4u);
  Engine eng(h, SystemModel::Ligra);
  EXPECT_TRUE(std::isfinite(checksum(eng, "PR")));
}

TEST(Degenerate, DuplicateEdgesPreserved) {
  // Multigraphs are allowed end-to-end (RMAT produces them).
  EdgeList el(3, {{0, 1}, {0, 1}, {0, 1}}, true);
  const Graph g = Graph::from_edges(std::move(el));
  EXPECT_EQ(g.in_degree(1), 3u);
  const auto r = order::vebo(g, 2);
  EdgeId total = 0;
  for (EdgeId e : r.part_edges) total += e;
  EXPECT_EQ(total, 3u);
}

// ------------------------------------------------- failure injection

TEST(FailureInjection, TruncatedAdjacencyAtEveryBoundary) {
  std::stringstream written;
  io::write_adjacency(written, gen::rmat(6, 4, 9));
  const std::string full = written.str();
  const std::size_t last_end = full.find_last_not_of('\n');
  const std::size_t last_start = full.find_last_of('\n', last_end) + 1;
  // Every prefix that ends before the last token starts lacks at least
  // one of the 3 + n + m tokens: each read must throw, not crash or
  // return a half-built graph.
  for (std::size_t cut = 0; cut <= last_start; ++cut) {
    std::stringstream ss(full.substr(0, cut));
    EXPECT_THROW(io::read_adjacency(ss), Error) << "cut=" << cut;
  }
  std::stringstream whole(full);
  EXPECT_NO_THROW(io::read_adjacency(whole));
}

TEST(FailureInjection, AdjacencyGarbageFields) {
  {
    std::stringstream ss("AdjacencyGraph\n-3\nxyz\n");
    EXPECT_THROW(io::read_adjacency(ss), Error);
  }
  {
    // Offsets out of order must be rejected.
    std::stringstream ss("AdjacencyGraph\n2\n2\n1\n0\n0\n1\n");
    EXPECT_THROW(io::read_adjacency(ss), Error);
  }
}

}  // namespace
}  // namespace vebo
