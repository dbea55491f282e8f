// Ablation over three design choices of the reproduction:
//  1. Partition count sweep: how P affects VEBO balance, the modeled
//     makespan and COO build cost (GraphGrind recommends P=384).
//  2. Scheduling policy: modeled makespans of static / dynamic / hybrid
//     schedules on original vs VEBO partition times.
//  3. Frontier density threshold: push/pull switchover sensitivity for
//     BFS.
#include <algorithm>
#include <iostream>

#include "algorithms/pagerank.hpp"
#include "algorithms/registry.hpp"
#include "bench_common.hpp"
#include "framework/coo_iter.hpp"
#include "framework/engine.hpp"
#include "metrics/makespan.hpp"

using namespace vebo;

int main() {
  bench::print_header("Ablation: partition count, scheduling, density");
  const Graph g = gen::make_dataset("twitter", bench::bench_scale(), 42);
  std::cout << g.describe("twitter") << "\n";

  std::cout << "\n== 1. partition count sweep (VEBO) ==\n";
  Table t("P sweep");
  t.set_header({"P", "Delta", "delta", "static mk (ms)", "dynamic mk (ms)",
                "COO build (ms)"});
  for (VertexId P : {12u, 48u, 96u, 192u, 384u, 768u}) {
    const auto r = order::vebo(g, P);
    const Graph h = permute(g, r.perm);
    EngineOptions opts;
    opts.explicit_partitioning = &r.partitioning;
    Engine eng(h, SystemModel::GraphGrind, opts);
    Timer timer;
    const PartitionedCoo coo =
        build_partitioned_coo(h, r.partitioning, EdgeOrder::Csr);
    const double build_ms = timer.elapsed_ms();
    const auto times = algo::pagerank_partition_times(eng, 2);
    t.add_row({Table::num(std::size_t{P}),
               Table::num(std::size_t{r.edge_imbalance()}),
               Table::num(std::size_t{r.vertex_imbalance()}),
               Table::num(metrics::makespan_static(times,
                                                   bench::kPaperThreads) *
                          1e3),
               Table::num(metrics::makespan_dynamic(times,
                                                    bench::kPaperThreads) *
                          1e3),
               Table::num(build_ms, 1)});
  }
  t.print(std::cout);
  std::cout << "Expected: makespan improves with over-partitioning until\n"
               "per-partition fixed costs dominate (the paper recommends\n"
               "P=384 = 8 partitions per thread).\n";

  std::cout << "\n== 2. scheduling policy on measured partition times ==\n";
  Table s("schedules");
  s.set_header({"Order", "static", "dynamic", "hybrid(4x12)",
                "ideal(sum/48)"});
  for (const bool vebo_order : {false, true}) {
    std::vector<double> times;
    std::string label;
    if (vebo_order) {
      const auto r = order::vebo(g, bench::kPaperPartitions);
      const Graph h = permute(g, r.perm);
      EngineOptions opts;
      opts.explicit_partitioning = &r.partitioning;
      Engine eng(h, SystemModel::GraphGrind, opts);
      times = algo::pagerank_partition_times(eng, 2);
      label = "VEBO";
    } else {
      Engine eng(g, SystemModel::GraphGrind,
                 {.partitions = bench::kPaperPartitions});
      times = algo::pagerank_partition_times(eng, 2);
      label = "Orig.";
    }
    const double total = metrics::total_time(times);
    s.add_row(
        {label,
         Table::num(metrics::makespan_static(times, bench::kPaperThreads) *
                    1e3),
         Table::num(metrics::makespan_dynamic(times, bench::kPaperThreads) *
                    1e3),
         Table::num(metrics::makespan_hybrid(times, bench::kPaperSockets,
                                             bench::kPaperThreadsPerSocket) *
                    1e3),
         Table::num(total / bench::kPaperThreads * 1e3)});
  }
  s.print(std::cout);
  std::cout << "Expected: dynamic scheduling tolerates the original\n"
               "order's imbalance (Ligra's behaviour); static scheduling\n"
               "pays for it; VEBO closes the static-dynamic gap.\n";

  std::cout << "\n== 3. frontier density threshold sweep (BFS) ==\n";
  Table d("density threshold");
  d.set_header({"m/denominator", "BFS time (ms)", "rounds"});
  VertexId src = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (g.out_degree(v) > g.out_degree(src)) src = v;
  const algo::AlgorithmSpec& bfs = algo::spec("BFS");
  const algo::QueryParams from = algo::QueryParams().set("source", src);
  for (EdgeId denom : {2u, 5u, 20u, 100u, 1000u}) {
    Engine eng(g, SystemModel::Ligra, {.dense_denominator = denom});
    algo::QueryPayload levels;
    const double ms =
        bench::sample_ms([&] { levels = bfs.invoke(eng, from); }, 3).median;
    // BFS runs one round per level, plus the last one, which finds no
    // new vertex: rounds = deepest level + 1.
    VertexId deepest = 0;
    for (VertexId l : levels.ids())
      if (l != kInvalidVertex) deepest = std::max(deepest, l);
    d.add_row({"m/" + std::to_string(denom), Table::num(ms, 2),
               Table::num(std::size_t{deepest} + 1)});
  }
  d.print(std::cout);
  std::cout << "Expected: a U-shape around Ligra's m/20 default.\n";
  return 0;
}
