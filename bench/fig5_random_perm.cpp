// Regenerates the paper's Figure 5: performance of PRD, PR, CC and BFS
// under four vertex orders — Original, VEBO, Random, Random+VEBO — on the
// Twitter and USAroad stand-ins (GraphGrind model), normalized to the
// original order.
//
// Expected shape: Random is slowest (destroys balance and collection
// locality); VEBO applied to the random permutation restores performance
// to near VEBO-on-original; on USAroad every reordering loses to the
// original (strong spatial structure) except CC.
#include <iostream>

#include "algorithms/pagerank.hpp"
#include "algorithms/registry.hpp"
#include "bench_common.hpp"
#include "framework/engine.hpp"
#include "metrics/makespan.hpp"

using namespace vebo;

namespace {

struct Variant {
  std::string name;
  Graph graph;
  order::Partitioning part;  // explicit (VEBO) or Algorithm 1 derived
  bool explicit_part;
};

std::vector<Variant> make_variants(const Graph& g) {
  std::vector<Variant> out;
  const VertexId P = bench::kPaperPartitions;

  out.push_back({"Original", g, order::partition_by_destination(g, P), false});

  const auto rv = order::vebo(g, P);
  out.push_back({"VEBO", permute(g, rv.perm), rv.partitioning, true});

  const Permutation rnd = order::random_order(g.num_vertices(), 7);
  const Graph grnd = permute(g, rnd);
  out.push_back(
      {"Random", grnd, order::partition_by_destination(grnd, P), false});

  const auto rrv = order::vebo(grnd, P);
  out.push_back({"Random+VEBO", permute(grnd, rrv.perm), rrv.partitioning,
                 true});
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 5: Original vs VEBO vs Random vs Random+VEBO (GraphGrind)");
  for (const char* name : {"twitter", "usaroad"}) {
    const Graph g = gen::make_dataset(name, bench::bench_scale(), 42);
    std::cout << "\n" << g.describe(name) << "\n";
    auto variants = make_variants(g);

    Table t("speedup vs Original — " + std::string(name));
    t.set_header({"Algo", "Original", "VEBO", "Random", "Random+VEBO"});
    for (const char* code : {"PRD", "PR", "CC", "BFS"}) {
      const auto& a = algo::spec(code);
      std::map<std::string, double> ms;
      for (auto& v : variants) {
        EngineOptions opts;
        if (v.explicit_part)
          opts.explicit_partitioning = &v.part;
        else
          opts.partitions = bench::kPaperPartitions;
        Engine eng(v.graph, SystemModel::GraphGrind, opts);
        ms[v.name] =
            bench::sample_ms([&] { a.checksum(a.invoke(eng)); }, 3).median;
      }
      const double base = ms["Original"];
      t.add_row({code, "1.000",
                 Table::num(base / ms["VEBO"], 3),
                 Table::num(base / ms["Random"], 3),
                 Table::num(base / ms["Random+VEBO"], 3)});
    }
    t.print(std::cout);

    // Balance view: modeled static makespan of the PR kernel per variant.
    Table m("modeled 48-thread static makespan of PR kernel (ms) — " +
            std::string(name));
    m.set_header({"Variant", "makespan", "vs Original"});
    double base_mk = 0.0;
    for (auto& v : variants) {
      EngineOptions opts;
      opts.explicit_partitioning = &v.part;
      Engine eng(v.graph, SystemModel::GraphGrind, opts);
      const auto times = algo::pagerank_partition_times(eng, 2);
      const double mk =
          metrics::makespan_static(times, bench::kPaperThreads);
      if (v.name == "Original") base_mk = mk;
      m.add_row({v.name, Table::num(mk * 1e3),
                 Table::num(base_mk / std::max(1e-12, mk), 2) + "x"});
    }
    m.print(std::cout);
  }
  std::cout << "\nPaper reference: random permutation is slowest; VEBO on\n"
               "the random permutation restores performance to near VEBO\n"
               "on the original ids; USAroad prefers its original order.\n";
  return 0;
}
