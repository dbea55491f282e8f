// Regenerates the paper's Table IV: the distribution of active edges over
// 384 partitions for the sparse iterations of BFS on the Twitter stand-in,
// Original vs VEBO.
//
// Expected shape: original order leaves many partitions with zero active
// edges (min = 0, large S.D.); VEBO spreads high- and low-degree vertices
// uniformly, raising the minimum and cutting the standard deviation.
#include <iostream>

#include "algorithms/bfs.hpp"
#include "bench_common.hpp"
#include "framework/edgemap.hpp"
#include "metrics/balance.hpp"
#include "support/stats.hpp"

using namespace vebo;

namespace {

// Runs BFS capturing the frontier of each iteration, then reports the
// active-edge distribution over partitions per iteration.
struct IterationDist {
  VertexId frontier_size;
  EdgeId active_edges;
  Summary dist;
};

std::vector<IterationDist> bfs_distributions(
    const Graph& g, const order::Partitioning& part, VertexId source) {
  // Re-run a simple BFS frontier evolution (same traversal as BFS's spec)
  // while recording per-iteration frontiers.
  Engine eng(g, SystemModel::Ligra);
  std::vector<IterationDist> out;
  std::vector<VertexId> parent(g.num_vertices(), kInvalidVertex);
  parent[source] = source;
  std::vector<VertexId> frontier = {source};
  while (!frontier.empty()) {
    VertexSubset fs = VertexSubset::from_sparse(g.num_vertices(), frontier);
    const auto active = metrics::active_edges_per_partition(g, part, fs);
    IterationDist d;
    d.frontier_size = fs.size();
    d.active_edges = 0;
    for (EdgeId e : active) d.active_edges += e;
    std::vector<double> xs(active.begin(), active.end());
    d.dist = summarize(xs);
    out.push_back(d);

    std::vector<VertexId> next;
    for (VertexId u : frontier)
      for (VertexId v : g.out_neighbors(u))
        if (parent[v] == kInvalidVertex) {
          parent[v] = u;
          next.push_back(v);
        }
    frontier = std::move(next);
  }
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "Table IV: active-edge distribution over partitions (BFS, twitter)");
  const Graph g = gen::make_dataset("twitter", bench::bench_scale(), 42);
  std::cout << g.describe("twitter") << "\n";
  // Pick a source inside the giant component (a high-out-degree vertex).
  VertexId source = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (g.out_degree(v) > g.out_degree(source)) source = v;

  const auto part_orig =
      order::partition_by_destination(g, bench::kPaperPartitions);
  const auto dist_orig = bfs_distributions(g, part_orig, source);

  const auto r = order::vebo(g, bench::kPaperPartitions);
  const Graph h = permute(g, r.perm);
  const auto dist_vebo = bfs_distributions(h, r.partitioning, r.perm[source]);

  const std::size_t iters = std::min(dist_orig.size(), dist_vebo.size());
  Table t("Active edges per partition, per BFS iteration");
  t.set_header({"Iter", "ActiveEdges", "Ideal/Part", "Min O", "Min V",
                "Med O", "Med V", "SD O", "SD V", "Max O", "Max V"});
  for (std::size_t i = 0; i < iters; ++i) {
    const auto& o = dist_orig[i];
    const auto& v = dist_vebo[i];
    t.add_row({Table::num(i), Table::num(std::size_t{o.active_edges}),
               Table::num(static_cast<double>(o.active_edges) /
                              bench::kPaperPartitions,
                          1),
               Table::num(o.dist.min, 0), Table::num(v.dist.min, 0),
               Table::num(o.dist.median, 1), Table::num(v.dist.median, 1),
               Table::num(o.dist.stddev, 1), Table::num(v.dist.stddev, 1),
               Table::num(o.dist.max, 0), Table::num(v.dist.max, 0)});
  }
  t.print(std::cout);

  // Aggregate S.D. reduction over the sparse tail iterations.
  double sd_ratio_sum = 0.0;
  int counted = 0;
  for (std::size_t i = 2; i < iters; ++i) {
    if (dist_vebo[i].dist.stddev <= 0.0) continue;
    sd_ratio_sum += dist_orig[i].dist.stddev / dist_vebo[i].dist.stddev;
    ++counted;
  }
  if (counted)
    std::cout << "Mean S.D. reduction over iterations >= 2: "
              << Table::num(sd_ratio_sum / counted, 2) << "x\n";
  std::cout << "\nPaper reference: VEBO reduces the standard deviation of\n"
               "active edges per partition by up to 1.5x and eliminates\n"
               "most zero-active partitions in the sparse iterations.\n";
  return 0;
}
