// Social-network analysis: the workload family the paper's introduction
// motivates. On a preferential-attachment "social graph" we compute
// connected components, PageRank influencers and betweenness centrality,
// all on a VEBO-reordered graph, and report how the reordering balanced
// the work.
//
// Build & run:  ./examples/social_analysis [num_vertices]
#include <algorithm>
#include <iostream>

#include "algorithms/registry.hpp"
#include "framework/engine.hpp"
#include "gen/synthetic.hpp"
#include "graph/degree.hpp"
#include "graph/permute.hpp"
#include "order/vebo.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

int main(int argc, char** argv) {
  using namespace vebo;
  const VertexId n = argc > 1 ? static_cast<VertexId>(std::atoi(argv[1]))
                              : 50000;

  std::cout << "Generating a preferential-attachment social network...\n";
  const Graph g = gen::preferential_attachment(n, 6, /*seed=*/2024);
  std::cout << g.describe("social") << "\n";
  const auto hist = in_degree_histogram(g);
  std::cout << "degree distribution (top degrees):\n"
            << hist.render(8)
            << "estimated power-law exponent: "
            << hist.powerlaw_exponent(6) << "\n";

  // Reorder with VEBO, then analyze on a GraphGrind-style engine.
  Timer prep;
  const auto r = order::vebo(g, 384);
  const Graph h = permute(g, r.perm);
  std::cout << "VEBO reorder took " << Table::num(prep.elapsed_ms(), 1)
            << " ms (Delta=" << r.edge_imbalance()
            << ", delta=" << r.vertex_imbalance() << ")\n";
  EngineOptions opts;
  opts.explicit_partitioning = &r.partitioning;
  Engine eng(h, SystemModel::GraphGrind, opts);

  // Communities: the checksum fold counts components.
  Timer t1;
  const algo::AlgorithmSpec& cc = algo::spec("CC");
  const algo::QueryPayload labels = cc.invoke(eng);
  std::cout << "\ncomponents: "
            << static_cast<std::size_t>(cc.checksum(labels)) << " (in "
            << Table::num(t1.elapsed_ms(), 1) << " ms)\n";

  // Influencers: top PageRank vertices, mapped back to original ids.
  Timer t2;
  const algo::QueryPayload pr =
      algo::spec("PR").invoke(eng, algo::QueryParams().set("iterations", 20));
  const std::vector<double>& rank = pr.doubles();
  const Permutation inv = invert(r.perm);
  std::vector<VertexId> by_rank(h.num_vertices());
  for (VertexId v = 0; v < h.num_vertices(); ++v) by_rank[v] = v;
  std::sort(by_rank.begin(), by_rank.end(),
            [&](VertexId a, VertexId b) { return rank[a] > rank[b]; });
  std::cout << "PageRank (" << Table::num(t2.elapsed_ms(), 1)
            << " ms). Top influencers (original ids):\n";
  Table top("top-5 by PageRank");
  top.set_header({"orig id", "rank", "degree"});
  for (int i = 0; i < 5; ++i) {
    const VertexId v = by_rank[i];
    top.add_row({Table::num(std::size_t{inv[v]}),
                 Table::num(rank[v], 6),
                 Table::num(std::size_t{h.in_degree(v)})});
  }
  top.print(std::cout);

  // Brokers: betweenness from the top influencer.
  Timer t3;
  const algo::QueryPayload bc = algo::spec("BC").invoke(
      eng, algo::QueryParams().set("source", by_rank[0]));
  const std::vector<double>& dependency = bc.doubles();
  double best_dep = 0.0;
  VertexId best_v = 0;
  for (VertexId v = 0; v < h.num_vertices(); ++v)
    if (dependency[v] > best_dep) {
      best_dep = dependency[v];
      best_v = v;
    }
  std::cout << "Betweenness from top influencer ("
            << Table::num(t3.elapsed_ms(), 1)
            << " ms): strongest broker is original id "
            << inv[best_v] << " with dependency "
            << Table::num(best_dep, 1) << "\n";
  return 0;
}
