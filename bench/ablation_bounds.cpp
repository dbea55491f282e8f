// Ablation: the theorem bounds in practice. Sweeps the Zipf exponent s,
// the rank count N and the partition count P and reports Δ(n), δ(n) and
// whether the Theorem 1/2 preconditions hold — mapping the boundary at
// which VEBO's optimality guarantee starts/stops applying. Also compares
// the exact and blocked variants on a locality metric. Exits 1, naming
// the row, when Δ(n) or δ(n) exceeds 1 where both preconditions hold,
// when Δ(n) exceeds the largest in-degree (the greedy bound), or when the
// blocked variant's loads differ from the exact one's.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gen/powerlaw.hpp"
#include "order/rcm.hpp"
#include "order/vebo.hpp"
#include "support/histogram.hpp"

using namespace vebo;

int main() {
  bench::print_header("Ablation: Theorem 1/2 bounds across (s, N, P)");

  Table t("balance vs theorem preconditions");
  t.set_header({"s", "N", "P", "|E|", "|E|>=N(P-1)", "n>=N*H",
                "Delta(n)", "delta(n)"});
  std::vector<std::string> failures;
  const VertexId n = static_cast<VertexId>(30000 * bench::bench_scale() * 4);
  for (double s : {0.7, 1.0, 1.5}) {
    for (std::size_t N : {128u, 512u, 2048u}) {
      const Graph g = gen::zipf_directed(n, 99, {.s = s, .ranks = N});
      for (VertexId P : {16u, 48u, 384u}) {
        const auto r = order::vebo(g, P);
        const bool cond_e = g.num_edges() >= static_cast<EdgeId>(N) * (P - 1);
        const bool cond_v =
            n >= static_cast<double>(N) * generalized_harmonic(N, s);
        t.add_row({Table::num(s, 1), Table::num(N), Table::num(std::size_t{P}),
                   Table::num(std::size_t{g.num_edges()}),
                   cond_e ? "yes" : "no", cond_v ? "yes" : "no",
                   Table::num(std::size_t{r.edge_imbalance()}),
                   Table::num(std::size_t{r.vertex_imbalance()})});
        const std::string row = "s=" + Table::num(s, 1) +
                                " N=" + std::to_string(N) +
                                " P=" + std::to_string(P);
        if (cond_e && cond_v &&
            (r.edge_imbalance() > 1 || r.vertex_imbalance() > 1))
          failures.push_back(row + ": Delta or delta above 1 (Theorems 1-2)");
        if (r.edge_imbalance() > g.max_in_degree())
          failures.push_back(row + ": Delta above the largest in-degree");
      }
    }
  }
  t.print(std::cout);
  std::cout << "Expected: Delta(n) <= 1 and delta(n) <= 1 whenever both\n"
               "preconditions hold; graceful degradation bounded by the\n"
               "max degree otherwise.\n";

  // Blocked vs exact: balance is identical, locality differs.
  std::cout << "\n== blocked vs exact VEBO (locality ablation) ==\n";
  Table b("blocked vs exact");
  b.set_header({"Graph", "Variant", "Delta", "delta", "bandwidth",
                "reorder ms"});
  for (const char* name : {"usaroad", "orkut"}) {
    const Graph g = gen::make_dataset(name, bench::bench_scale(), 42);
    order::VeboResult exact;
    for (bool blocked : {false, true}) {
      Timer timer;
      const auto r = order::vebo(g, 48, {.blocked = blocked});
      const double ms = timer.elapsed_ms();
      if (!blocked)
        exact = r;
      else if (r.part_edges != exact.part_edges ||
               r.part_vertices != exact.part_vertices)
        failures.push_back(std::string(name) +
                           ": blocked and exact loads differ");
      b.add_row({name, blocked ? "blocked" : "exact",
                 Table::num(std::size_t{r.edge_imbalance()}),
                 Table::num(std::size_t{r.vertex_imbalance()}),
                 Table::num(std::size_t{order::bandwidth(g, r.perm)}),
                 Table::num(ms, 1)});
    }
  }
  b.print(std::cout);
  std::cout << "Expected: identical balance; the blocked variant keeps\n"
               "runs of consecutive original ids together (lower or equal\n"
               "bandwidth on locality-rich graphs like road networks).\n";
  for (const std::string& f : failures) std::cerr << "FAILED " << f << "\n";
  return failures.empty() ? 0 : 1;
}
