// Quickstart: the 60-second tour of the library.
//
//   1. Generate (or load) a graph.
//   2. Run VEBO to get a balanced vertex order.
//   3. Relabel the graph and hand it to an Engine.
//   4. Run algorithms through the typed query protocol.
//
// Build & run:  ./examples/quickstart
#include <iostream>

#include "algorithms/registry.hpp"
#include "framework/engine.hpp"
#include "gen/rmat.hpp"
#include "graph/permute.hpp"
#include "metrics/balance.hpp"
#include "order/vebo.hpp"
#include "support/table.hpp"

int main() {
  using namespace vebo;

  // 1. A scale-14 RMAT graph: 16k vertices, 262k edges, power-law.
  const Graph g = gen::rmat(/*scale=*/14, /*edge_factor=*/16, /*seed=*/1);
  std::cout << g.describe("input") << "\n";

  // 2. VEBO: balance edges AND destination vertices over 48 partitions.
  const order::VeboResult r = order::vebo(g, /*partitions=*/48);
  std::cout << "VEBO: edge imbalance Delta(n) = " << r.edge_imbalance()
            << ", vertex imbalance delta(n) = " << r.vertex_imbalance()
            << "\n";

  // 3. Relabel. The reordered graph is isomorphic to the input; partition
  //    p owns the contiguous vertex range r.partitioning.[begin,end)(p).
  const Graph h = permute(g, r.perm);

  // Compare against the classic edge-balanced chunking (Algorithm 1 of
  // the paper) on the original order.
  const auto before = metrics::profile_partitions(
      g, order::partition_by_destination(g, 48));
  const auto after = metrics::profile_partitions(h, r.partitioning);
  Table t("per-partition balance, 48 partitions");
  t.set_header({"", "edge gap (max-min)", "vertex gap (max-min)"});
  t.add_row({"original + Algorithm 1",
             Table::num(std::size_t{before.edge_imbalance()}),
             Table::num(std::size_t{before.vertex_imbalance()})});
  t.add_row({"VEBO", Table::num(std::size_t{after.edge_imbalance()}),
             Table::num(std::size_t{after.vertex_imbalance()})});
  t.print(std::cout);

  // 4. Run algorithms on a GraphGrind-style engine using VEBO's
  //    partitions, through the typed query protocol: look the algorithm
  //    up by its paper code, pass typed params, get a typed payload.
  EngineOptions opts;
  opts.explicit_partitioning = &r.partitioning;
  Engine eng(h, SystemModel::GraphGrind, opts);

  // Full per-vertex PageRank vector...
  const algo::AlgorithmSpec& pr = algo::spec("PR");
  const algo::QueryPayload ranks = pr.invoke(
      eng, algo::QueryParams().set("iterations", 10).set("damping", 0.85));
  std::cout << "PageRank: " << ranks.num_entries()
            << " per-vertex ranks, total mass " << pr.checksum(ranks)
            << "\n";

  // ...or just the top-5 ranking as (vertex, score) pairs. Note: the
  // engine runs on the VEBO-relabelled graph, so payload vertex ids are
  // positions in `h`; serving layers translate them back to original ids
  // with translate_to_original_ids(payload, r.perm).
  const algo::QueryPayload top5 =
      pr.invoke(eng, algo::QueryParams().set("top_k", 5));
  std::cout << "top-5:";
  for (const auto& [v, score] : top5.top())
    std::cout << "  v" << v << "=" << score;
  std::cout << "\n";

  // BFS takes a source; payload is the per-vertex level vector.
  const algo::AlgorithmSpec& bfs = algo::spec("BFS");
  const algo::QueryPayload levels =
      bfs.invoke(eng, algo::QueryParams().set("source", 0));
  std::cout << "BFS from v0 reached " << bfs.checksum(levels) << " of "
            << levels.num_entries() << " vertices\n";
  return 0;
}
