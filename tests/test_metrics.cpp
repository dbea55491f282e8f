// Tests for the metrics layer: balance profiles, active-edge
// distributions, the cost model, and the makespan models that project
// per-partition times onto a multi-socket machine.
#include <gtest/gtest.h>

#include <cmath>

#include "gen/rmat.hpp"
#include "gen/synthetic.hpp"
#include "graph/permute.hpp"
#include "metrics/balance.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "metrics/cost_model.hpp"
#include "metrics/makespan.hpp"
#include "order/vebo.hpp"

namespace vebo {
namespace {

// -------------------------------------------------------------- balance

TEST(Balance, ProfileSumsMatchGraph) {
  const Graph g = gen::rmat(10, 6, 1);
  const auto part = order::partition_by_destination(g, 16);
  const auto prof = metrics::profile_partitions(g, part);
  EdgeId edges = 0;
  VertexId verts = 0;
  for (std::size_t p = 0; p < 16; ++p) {
    edges += prof.edges[p];
    verts += prof.vertices[p];
  }
  EXPECT_EQ(edges, g.num_edges());
  EXPECT_EQ(verts, g.num_vertices());
}

TEST(Balance, VeboProfileNearPerfectUnderItsOwnBoundaries) {
  const Graph g = gen::rmat(11, 8, 2);
  const auto r = order::vebo(g, 48);
  const Graph h = permute(g, r.perm);
  // Profiling the reordered graph under VEBO's own partition boundaries
  // must reproduce the algorithm's reported near-perfect balance.
  const auto prof = metrics::profile_partitions(h, r.partitioning);
  EXPECT_EQ(prof.vertex_imbalance(), r.vertex_imbalance());
  EXPECT_EQ(prof.edge_imbalance(), r.edge_imbalance());
  EXPECT_LE(prof.vertex_imbalance(), 1u);
}

TEST(Balance, OriginalOrderWorseThanVebo) {
  const Graph g = gen::rmat(11, 8, 3);
  const auto orig_prof = metrics::profile_partitions(
      g, order::partition_by_destination(g, 48));
  const Graph h = order::vebo_reorder(g, 48);
  const auto vebo_prof = metrics::profile_partitions(
      h, order::partition_by_destination(h, 48));
  // The key claim: VEBO's destination balance beats Algorithm 1 alone.
  EXPECT_LT(vebo_prof.vertex_imbalance(), orig_prof.vertex_imbalance());
}

TEST(Balance, ActiveEdgesPerPartitionSumsToFrontierOutEdges) {
  const Graph g = gen::rmat(9, 6, 4);
  const auto part = order::partition_by_destination(g, 8);
  auto frontier = VertexSubset::from_sparse(g.num_vertices(), {0, 5, 10});
  const auto active = metrics::active_edges_per_partition(g, part, frontier);
  EdgeId total = 0;
  for (EdgeId e : active) total += e;
  EdgeId expect = g.out_degree(0) + g.out_degree(5) + g.out_degree(10);
  EXPECT_EQ(total, expect);
}

// ------------------------------------------------------------ cost model

TEST(CostModel, RecoversSyntheticCoefficients) {
  // Fabricate a profile and times from known coefficients; the fit must
  // recover them.
  metrics::PartitionProfile prof;
  SplitMix64 rng(5);
  std::vector<double> times;
  for (int p = 0; p < 64; ++p) {
    const EdgeId e = 1000 + rng.next() % 5000;
    const VertexId d = static_cast<VertexId>(100 + rng.next() % 900);
    const VertexId s = static_cast<VertexId>(200 + rng.next() % 1800);
    prof.edges.push_back(e);
    prof.dests.push_back(d);
    prof.sources.push_back(s);
    prof.vertices.push_back(d);
    times.push_back(2e-9 * e + 5e-9 * d + 1e-9 * s + 1e-6);
  }
  const auto m = metrics::fit_cost_model(prof, times);
  EXPECT_NEAR(m.per_edge, 2e-9, 1e-12);
  EXPECT_NEAR(m.per_dest, 5e-9, 1e-11);
  EXPECT_NEAR(m.per_source, 1e-9, 1e-11);
  EXPECT_NEAR(m.predict(1000, 100, 200), 2e-6 + 5e-7 + 2e-7 + 1e-6, 1e-9);
}

TEST(CostModel, CorrelationsDetectDestinationDependence) {
  metrics::PartitionProfile prof;
  std::vector<double> times;
  SplitMix64 rng(9);
  for (int p = 0; p < 100; ++p) {
    const EdgeId e = 10000;  // constant edges (edge-balanced!)
    const VertexId d = static_cast<VertexId>(100 + rng.next() % 4000);
    prof.edges.push_back(e);
    prof.dests.push_back(d);
    prof.sources.push_back(500);
    prof.vertices.push_back(d);
    times.push_back(1e-9 * e + 4e-9 * d);
  }
  const auto c = metrics::time_feature_correlations(prof, times);
  // Edge-balanced partitions: time varies with destinations only — the
  // paper's Figure 1 observation.
  EXPECT_NEAR(c.dests, 1.0, 1e-9);
  EXPECT_NEAR(c.edges, 0.0, 1e-9);
}

TEST(CostModel, SizeMismatchThrows) {
  metrics::PartitionProfile prof;
  prof.edges = {1, 2};
  std::vector<double> times = {0.1};
  EXPECT_THROW(metrics::fit_cost_model(prof, times), Error);
}

// --------------------------------------------------------------- makespan

TEST(Makespan, StaticIsSlowestBlock) {
  // 4 partitions on 2 threads: blocks {0,1} and {2,3}.
  std::vector<double> t = {1.0, 1.0, 3.0, 1.0};
  EXPECT_DOUBLE_EQ(metrics::makespan_static(t, 2), 4.0);
  EXPECT_DOUBLE_EQ(metrics::makespan_static(t, 4), 3.0);
  EXPECT_DOUBLE_EQ(metrics::makespan_static(t, 1), 6.0);
}

TEST(Makespan, DynamicBalancesBetterThanStatic) {
  // Two heavy partitions land in the same static block -> static pays
  // 6.0; dynamic list scheduling puts them on distinct threads.
  std::vector<double> t = {3.0, 3.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1};
  const double stat = metrics::makespan_static(t, 4);
  EXPECT_DOUBLE_EQ(stat, 6.0);
  const double dyn = metrics::makespan_dynamic(t, 4);
  EXPECT_LT(dyn, stat);
  EXPECT_LE(dyn, 3.2);
}

TEST(Makespan, DynamicLowerBoundedByMaxAndAverage) {
  std::vector<double> t = {5.0, 1.0, 1.0, 1.0};
  const double dyn = metrics::makespan_dynamic(t, 2);
  EXPECT_GE(dyn, 5.0);                       // max task
  EXPECT_GE(dyn, metrics::total_time(t) / 2);  // average bound
}

TEST(Makespan, HybridInterpolates) {
  std::vector<double> t(16, 1.0);
  t[0] = 4.0;
  const double hybrid = metrics::makespan_hybrid(t, 2, 4);
  const double stat = metrics::makespan_static(t, 8);
  EXPECT_LE(hybrid, stat + 1e-12);
  EXPECT_GE(hybrid, metrics::makespan_dynamic(t, 8) - 1e-12);
}

TEST(Makespan, PerfectBalanceScalesLinearly) {
  std::vector<double> t(48, 1.0);
  EXPECT_DOUBLE_EQ(metrics::makespan_static(t, 48), 1.0);
  EXPECT_DOUBLE_EQ(metrics::makespan_dynamic(t, 48), 1.0);
  EXPECT_DOUBLE_EQ(
      metrics::efficiency(metrics::total_time(t),
                          metrics::makespan_static(t, 48), 48),
      1.0);
}

TEST(Makespan, EdgeCases) {
  EXPECT_DOUBLE_EQ(metrics::makespan_static({}, 4), 0.0);
  EXPECT_DOUBLE_EQ(metrics::makespan_dynamic({}, 4), 0.0);
  EXPECT_DOUBLE_EQ(metrics::efficiency(1.0, 0.0, 4), 0.0);
}

TEST(Makespan, HybridWithOneSocketEqualsDynamic) {
  std::vector<double> t = {3, 1, 2, 1, 4, 1, 1, 2};
  EXPECT_DOUBLE_EQ(metrics::makespan_hybrid(t, 1, 4),
                   metrics::makespan_dynamic(t, 4));
}

TEST(Makespan, MoreThreadsThanPartitions) {
  std::vector<double> t = {2.0, 1.0};
  EXPECT_DOUBLE_EQ(metrics::makespan_static(t, 8), 2.0);
  EXPECT_DOUBLE_EQ(metrics::makespan_dynamic(t, 8), 2.0);
}

TEST(Makespan, VeboImprovesStaticMakespanModel) {
  // End-to-end shape check on structural counts as proxy times: static
  // makespan under VEBO partition edges is no worse than original.
  const Graph g = gen::rmat(11, 8, 6);
  const VertexId P = 48;
  auto to_times = [](const std::vector<EdgeId>& edges) {
    std::vector<double> t(edges.begin(), edges.end());
    return t;
  };
  const auto orig =
      metrics::profile_partitions(g, order::partition_by_destination(g, P))
          .edges;
  const Graph h = order::vebo_reorder(g, P);
  const auto veb =
      metrics::profile_partitions(h, order::partition_by_destination(h, P))
          .edges;
  EXPECT_LE(metrics::makespan_static(to_times(veb), P),
            metrics::makespan_static(to_times(orig), P));
}

}  // namespace
}  // namespace vebo
