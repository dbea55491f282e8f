// Ablation: the full ordering zoo on one power-law graph and one road
// graph. For every ordering the library implements, reports the three
// axes the paper distinguishes:
//   balance   — Δ/δ under Algorithm-1 partitioning (or the ordering's own
//               partitioning where it has one) and the modeled 48-thread
//               static makespan of the PR kernel,
//   locality  — bandwidth and the Gorder window score,
//   overhead  — time to compute the ordering.
// This extends the paper's {Orig, RCM, Gorder, VEBO} comparison with
// SlashBurn, LDG, BFS/DFS orders and the degree sort of Section V-G.
#include <functional>
#include <iostream>

#include "algorithms/pagerank.hpp"
#include "algorithms/registry.hpp"
#include "bench_common.hpp"
#include "framework/engine.hpp"
#include "metrics/balance.hpp"
#include "metrics/makespan.hpp"
#include "order/gorder.hpp"
#include "order/ldg.hpp"
#include "order/rcm.hpp"
#include "order/slashburn.hpp"
#include "order/sort_order.hpp"
#include "order/vebo.hpp"

using namespace vebo;

namespace {

struct NamedOrdering {
  std::string name;
  std::function<Permutation(const Graph&)> compute;
};

const std::vector<NamedOrdering>& zoo() {
  static const std::vector<NamedOrdering> orderings = {
      {"Original", [](const Graph& g) { return order::original(g); }},
      {"Random",
       [](const Graph& g) { return order::random_order(g.num_vertices(), 7); }},
      {"DegreeSort",
       [](const Graph& g) { return order::degree_sort_high_to_low(g); }},
      {"BFS", [](const Graph& g) { return order::bfs_order(g); }},
      {"DFS", [](const Graph& g) { return order::dfs_order(g); }},
      {"RCM", [](const Graph& g) { return order::rcm(g); }},
      {"Gorder", [](const Graph& g) { return order::gorder(g); }},
      {"SlashBurn", [](const Graph& g) { return order::slashburn(g); }},
      {"LDG",
       [](const Graph& g) {
         return order::ldg(g, bench::kPaperPartitions).perm;
       }},
      {"VEBO",
       [](const Graph& g) {
         return order::vebo(g, bench::kPaperPartitions).perm;
       }},
  };
  return orderings;
}

}  // namespace

int main() {
  bench::print_header("Ablation: the ordering zoo (balance vs locality)");
  for (const char* dataset : {"twitter", "usaroad"}) {
    const Graph g = gen::make_dataset(dataset, bench::bench_scale(), 42);
    std::cout << "\n" << g.describe(dataset) << "\n";
    Table t(std::string("ordering zoo — ") + dataset);
    t.set_header({"Ordering", "order ms", "Delta", "delta",
                  "static mk (ms)", "bandwidth", "PR time (s)"});
    for (const auto& o : zoo()) {
      Timer timer;
      const Permutation perm = o.compute(g);
      const double order_ms = timer.elapsed_ms();
      const Graph h = permute(g, perm);
      const auto part =
          order::partition_by_destination(h, bench::kPaperPartitions);
      const auto prof = metrics::profile_partitions(h, part);
      EngineOptions opts;
      opts.explicit_partitioning = &part;
      Engine eng(h, SystemModel::GraphGrind, opts);
      const auto times = algo::pagerank_partition_times(eng, 2);
      const double mk =
          metrics::makespan_static(times, bench::kPaperThreads);
      const algo::QueryParams five = algo::QueryParams().set("iterations", 5);
      const double pr_s =
          bench::sample_ms([&] { algo::spec("PR").invoke(eng, five); }, 3)
              .median /
          1e3;
      t.add_row({o.name, Table::num(order_ms, 1),
                 Table::num(std::size_t{prof.edge_imbalance()}),
                 Table::num(std::size_t{prof.vertex_imbalance()}),
                 Table::num(mk * 1e3),
                 Table::num(std::size_t{order::bandwidth(h, order::original(h))}),
                 Table::num(pr_s, 4)});
    }
    t.print(std::cout);
  }
  std::cout << "\nExpected: VEBO minimizes the makespan column at ordering\n"
               "cost comparable to a BFS; locality-driven orderings (RCM,\n"
               "Gorder, BFS) minimize bandwidth but not balance; LDG\n"
               "balances vertices but not edges.\n";
  return 0;
}
