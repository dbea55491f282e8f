// Tests for the ordering baselines and the Algorithm-1 partitioner:
// RCM, Gorder, degree sort, random permutation, Hilbert curve.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <span>
#include <utility>

#include "gen/erdos.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "gen/synthetic.hpp"
#include "graph/permute.hpp"
#include "graph_reference.hpp"
#include "metrics/balance.hpp"
#include "order/gorder.hpp"
#include "order/hilbert.hpp"
#include "order/partition.hpp"
#include "order/rcm.hpp"
#include "order/sort_order.hpp"
#include "support/error.hpp"

namespace vebo {
namespace {

// ------------------------------------------------------------ partition

TEST(Partition, SingePartitionOwnsAll) {
  const Graph g = gen::figure3_example();
  const auto part = order::partition_by_destination(g, 1);
  EXPECT_EQ(part.num_partitions(), 1u);
  EXPECT_EQ(part.begin(0), 0u);
  EXPECT_EQ(part.end(0), 6u);
}

TEST(Partition, BoundariesMonotoneAndCovering) {
  const Graph g = gen::rmat(10, 8, 2);
  for (VertexId P : {2u, 5u, 16u, 64u}) {
    const auto part = order::partition_by_destination(g, P);
    ASSERT_EQ(part.boundaries.size(), P + 1u);
    EXPECT_EQ(part.boundaries.front(), 0u);
    EXPECT_EQ(part.boundaries.back(), g.num_vertices());
    for (VertexId p = 0; p < P; ++p)
      EXPECT_LE(part.begin(p), part.end(p));
  }
}

TEST(Partition, OwnerMatchesBoundaries) {
  const Graph g = gen::rmat(10, 8, 2);
  const auto part = order::partition_by_destination(g, 7);
  for (VertexId v = 0; v < g.num_vertices(); v += 13) {
    const VertexId p = part.owner(v);
    EXPECT_GE(v, part.begin(p));
    EXPECT_LT(v, part.end(p));
  }
}

TEST(Partition, EdgeCountsSumToTotal) {
  const Graph g = gen::rmat(10, 8, 3);
  const auto part = order::partition_by_destination(g, 12);
  const auto edges = metrics::profile_partitions(g, part).edges;
  EdgeId total = 0;
  for (EdgeId e : edges) total += e;
  EXPECT_EQ(total, g.num_edges());
}

TEST(Partition, ApproximatesEdgeBalanceOnUniformDegrees) {
  // On a cycle (all in-degree 1) Algorithm 1 is perfectly balanced.
  const Graph g = gen::cycle(100);
  const auto part = order::partition_by_destination(g, 10);
  const auto edges = metrics::profile_partitions(g, part).edges;
  for (EdgeId e : edges) EXPECT_EQ(e, 10u);
}

TEST(Partition, FromCounts) {
  const auto part = order::partition_from_counts({3, 2, 5});
  EXPECT_EQ(part.num_partitions(), 3u);
  EXPECT_EQ(part.begin(1), 3u);
  EXPECT_EQ(part.end(2), 10u);
}

TEST(Partition, DestinationAndSourceCounts) {
  const Graph g = gen::figure3_example();
  const auto part = order::partition_from_counts({3, 3});
  const auto prof = metrics::profile_partitions(g, part);
  // Vertices 0,1,2 all have in-edges; 3,4,5 all have in-edges.
  EXPECT_EQ(prof.dests[0], 3u);
  EXPECT_EQ(prof.dests[1], 3u);
  EXPECT_GT(prof.sources[0], 0u);
  EXPECT_GT(prof.sources[1], 0u);
}

TEST(Partition, RejectsZeroPartitions) {
  const Graph g = gen::figure3_example();
  EXPECT_THROW(order::partition_by_destination(g, 0), Error);
}

TEST(Partition, OwnerHandlesEmptyMiddlePartitions) {
  const auto part = order::partition_from_counts({3, 0, 0, 2});
  EXPECT_EQ(part.owner(2), 0u);
  EXPECT_EQ(part.owner(3), 3u);  // chunks 1 and 2 are empty
  EXPECT_EQ(part.vertices_in(1), 0u);
}

TEST(Gorder, WindowLargerThanGraph) {
  const Graph g = gen::figure3_example();
  const Permutation p = order::gorder(g, {.window = 100});
  EXPECT_TRUE(is_permutation(p));
}

// ------------------------------------------------------------------ RCM

TEST(Rcm, ProducesValidPermutation) {
  const Graph g = gen::erdos_renyi(500, 3000, 4);
  const Permutation p = order::rcm(g);
  EXPECT_TRUE(is_permutation(p));
}

TEST(Rcm, ReducesBandwidthOnShuffledPath) {
  // A path has bandwidth 1 optimally; shuffle it, then RCM should get
  // close to 1 again.
  const Graph path = gen::path(256, /*directed=*/false);
  const Permutation shuffle = order::random_order(256, 99);
  const Graph shuffled = permute(path, shuffle);
  const EdgeId before =
      order::bandwidth(shuffled, identity_permutation(256));
  const Permutation p = order::rcm(shuffled);
  const EdgeId after = order::bandwidth(shuffled, p);
  EXPECT_LT(after, before / 4);
  EXPECT_LE(after, 4u);
}

TEST(Rcm, HandlesDisconnectedComponents) {
  // Two disjoint triangles.
  EdgeList el(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}, true);
  el.symmetrize();
  const Graph g = Graph::from_edges(std::move(el));
  const Permutation p = order::rcm(g);
  EXPECT_TRUE(is_permutation(p));
}

TEST(Rcm, ReorderedGraphIsomorphic) {
  const Graph g = gen::road_grid(16, 16, 1);
  const Permutation p = order::rcm(g);
  const Graph h = permute(g, p);
  EXPECT_TRUE(is_isomorphic_under(g, h, p));
}

// --------------------------------------------------------------- Gorder

/// Locality score of a labelling: number of vertex pairs (u, v) that are
/// adjacent or siblings and whose labels differ by at most `window`.
/// Gorder maximizes this.
double gorder_score(const Graph& g, std::span<const VertexId> perm,
                    VertexId window = 5) {
  const VertexId n = g.num_vertices();
  double score = 0.0;
  // Adjacency term.
  g.for_each_edge([&](VertexId u, VertexId v) {
    const auto a = static_cast<std::int64_t>(perm[u]);
    const auto b = static_cast<std::int64_t>(perm[v]);
    if (std::abs(a - b) <= static_cast<std::int64_t>(window)) score += 1.0;
  });
  // Sibling term: pairs of out-neighbors of a common source. Quadratic in
  // the out-degree, so only used on small graphs.
  for (VertexId w = 0; w < n; ++w) {
    auto nb = g.out_neighbors(w);
    for (std::size_t i = 0; i < nb.size(); ++i)
      for (std::size_t j = i + 1; j < nb.size(); ++j) {
        const auto a = static_cast<std::int64_t>(perm[nb[i]]);
        const auto b = static_cast<std::int64_t>(perm[nb[j]]);
        if (std::abs(a - b) <= static_cast<std::int64_t>(window)) score += 1.0;
      }
  }
  return score;
}

TEST(Gorder, ProducesValidPermutation) {
  const Graph g = gen::rmat(9, 6, 5);
  const Permutation p = order::gorder(g);
  EXPECT_TRUE(is_permutation(p));
}

TEST(Gorder, ImprovesLocalityScoreOverRandom) {
  const Graph g = gen::preferential_attachment(400, 3, 7);
  const Permutation random = order::random_order(400, 3);
  const Permutation go = order::gorder(g);
  EXPECT_GT(gorder_score(g, go),
            gorder_score(g, random));
}

TEST(Gorder, WindowParameterValidated) {
  const Graph g = gen::figure3_example();
  EXPECT_THROW(order::gorder(g, {.window = 0}), Error);
}

TEST(Gorder, DeterministicAcrossRuns) {
  const Graph g = gen::rmat(8, 4, 9);
  EXPECT_EQ(order::gorder(g), order::gorder(g));
}

// ----------------------------------------------------------- sort_order

TEST(SortOrder, OriginalIsIdentity) {
  const Graph g = gen::figure3_example();
  const Permutation p = order::original(g);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(p[v], v);
}

TEST(SortOrder, RandomIsValidAndSeedDependent) {
  const Permutation a = order::random_order(100, 1);
  const Permutation b = order::random_order(100, 1);
  const Permutation c = order::random_order(100, 2);
  EXPECT_TRUE(is_permutation(a));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(SortOrder, DegreeSortPutsHubsFirst) {
  const Graph g = gen::figure3_example();
  const Permutation p = order::degree_sort_high_to_low(g);
  EXPECT_EQ(p[4], 0u);  // in-degree 4 -> new id 0
  EXPECT_EQ(p[5], 1u);  // in-degree 3 -> new id 1
  EXPECT_EQ(p[0], 5u);  // in-degree 1 -> last
  // Check monotone degrees under the new labelling.
  const Graph h = permute(g, p);
  for (VertexId v = 0; v + 1 < 6; ++v)
    EXPECT_GE(h.in_degree(v), h.in_degree(v + 1));
}

// -------------------------------------------------------------- Hilbert

/// Inverse of order::hilbert_index.
void hilbert_point(std::uint64_t d, int k, std::uint32_t& x,
                   std::uint32_t& y) {
  VEBO_ASSERT(k > 0 && k <= 32);
  std::uint64_t rx, ry, t = d;
  std::uint64_t xx = 0, yy = 0;
  for (std::uint64_t s = 1; s < (std::uint64_t{1} << k); s <<= 1) {
    rx = 1 & (t / 2);
    ry = 1 & (t ^ rx);
    if (ry == 0) {
      if (rx == 1) {
        xx = s - 1 - xx;
        yy = s - 1 - yy;
      }
      std::swap(xx, yy);
    }
    xx += s * rx;
    yy += s * ry;
    t /= 4;
  }
  x = static_cast<std::uint32_t>(xx);
  y = static_cast<std::uint32_t>(yy);
}

TEST(Hilbert, IndexBijectiveOrder4) {
  const int k = 4;  // 16x16
  std::vector<bool> seen(256, false);
  for (std::uint32_t x = 0; x < 16; ++x)
    for (std::uint32_t y = 0; y < 16; ++y) {
      const auto d = order::hilbert_index(x, y, k);
      ASSERT_LT(d, 256u);
      ASSERT_FALSE(seen[d]);
      seen[d] = true;
      std::uint32_t rx = 0, ry = 0;
      hilbert_point(d, k, rx, ry);
      EXPECT_EQ(rx, x);
      EXPECT_EQ(ry, y);
    }
}

TEST(Hilbert, ConsecutiveIndicesAreAdjacentCells) {
  const int k = 5;
  std::uint32_t px = 0, py = 0;
  hilbert_point(0, k, px, py);
  for (std::uint64_t d = 1; d < (1u << (2 * k)); ++d) {
    std::uint32_t x = 0, y = 0;
    hilbert_point(d, k, x, y);
    const int dist = std::abs(static_cast<int>(x) - static_cast<int>(px)) +
                     std::abs(static_cast<int>(y) - static_cast<int>(py));
    ASSERT_EQ(dist, 1) << "curve must move one cell at step " << d;
    px = x;
    py = y;
  }
}

TEST(Hilbert, OrderForCoversN) {
  EXPECT_EQ(order::hilbert_order_for(2), 1);
  EXPECT_EQ(order::hilbert_order_for(1024), 10);
  EXPECT_EQ(order::hilbert_order_for(1025), 11);
}

TEST(Hilbert, SortKeepsMultisetOfEdges) {
  const Graph g = gen::rmat(8, 4, 3);
  EdgeList el(g.num_vertices(), walked_edges(g), g.directed());
  auto before = std::vector<Edge>(el.edges().begin(), el.edges().end());
  order::sort_edges_hilbert(el);
  auto after = std::vector<Edge>(el.edges().begin(), el.edges().end());
  std::sort(before.begin(), before.end());
  auto sorted_after = after;
  std::sort(sorted_after.begin(), sorted_after.end());
  EXPECT_EQ(before, sorted_after);
  // And the order follows ascending Hilbert keys.
  const int k = order::hilbert_order_for(el.num_vertices());
  for (std::size_t i = 1; i < after.size(); ++i)
    EXPECT_LE(order::hilbert_index(after[i - 1].src, after[i - 1].dst, k),
              order::hilbert_index(after[i].src, after[i].dst, k));
}

}  // namespace
}  // namespace vebo
