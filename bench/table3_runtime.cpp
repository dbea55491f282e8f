// Regenerates the paper's Table III: runtime of 8 algorithms on 8 graphs
// under {Original, RCM, Gorder, VEBO} orderings, for the three system
// models (Ligra, Polymer, GraphGrind).
//
// Two views are reported:
//  1. Measured wall-clock of each run on this machine (captures work +
//     locality differences; the fastest ordering per row is starred).
//  2. The modeled 48-thread makespan of the dense PR edge kernel
//     (captures the load-balance effect that dominates on the paper's
//     4-socket machine under static scheduling) — see README, "Hardware
//     substitutions".
//
// Expected shape: VEBO wins consistently on Polymer/GraphGrind for the
// power-law graphs, is roughly neutral on Ligra (dynamic scheduling
// absorbs imbalance), and loses on USAroad (locality destroyed).
#include <cmath>
#include <iostream>

#include "algorithms/pagerank.hpp"
#include "algorithms/registry.hpp"
#include "bench_common.hpp"
#include "framework/engine.hpp"
#include "metrics/makespan.hpp"

using namespace vebo;

namespace {

struct SystemSpec {
  SystemModel model;
  VertexId vebo_partitions;  // paper: 4 for Polymer, 384 otherwise
};

double run_algo(const algo::AlgorithmSpec& a, const Graph& g,
                SystemModel model, const order::Partitioning* explicit_part) {
  EngineOptions opts;
  opts.explicit_partitioning = explicit_part;
  Engine eng(g, model, opts);
  return bench::sample_ms([&] { a.checksum(a.invoke(eng)); }, 3).median / 1e3;
}

}  // namespace

int main() {
  bench::print_header("Table III: runtime per system/ordering/algorithm");
  const double scale = bench::bench_scale();
  const std::vector<SystemSpec> systems = {
      {SystemModel::Ligra, bench::kPaperPartitions},
      {SystemModel::Polymer, 4},
      {SystemModel::GraphGrind, bench::kPaperPartitions},
  };

  // Per-system geomean speedup accumulators: ordering -> {log-sum, count}.
  std::map<std::string, std::map<std::string, std::pair<double, int>>> gmean;
  // Modeled 48-thread VEBO speedup accumulators per system; the second
  // map restricts to graphs satisfying the Theorem 1 precondition
  // |E| >= N(P-1) — the regime the paper's full-size graphs are in.
  std::map<std::string, std::pair<double, int>> gmean_model;
  std::map<std::string, std::pair<double, int>> gmean_model_cond;

  for (const auto& spec : gen::dataset_specs()) {
    const Graph g = gen::make_dataset(spec.name, scale, 42);
    std::cout << "\n" << g.describe(spec.name) << "\n";

    // Baseline orderings shared by every system.
    std::map<std::string, Graph> ordered;
    for (const auto& oname : {"Orig.", "RCM", "Gorder"}) {
      const Permutation perm = bench::compute_ordering(oname, g);
      ordered.emplace(oname,
                      oname == std::string("Orig.") ? g : permute(g, perm));
    }

    for (const auto& sys : systems) {
      // VEBO with the system's partition count (paper Section IV).
      const auto vr = order::vebo(g, sys.vebo_partitions);
      const Graph vebo_graph = permute(g, vr.perm);

      Table t(to_string(sys.model) + " — " + spec.name +
              "  (seconds, * = fastest)");
      t.set_header({"Algo", "Orig.", "RCM", "Gorder", "VEBO"});
      for (const auto& a : algo::specs()) {
        // The paper omits BC on Polymer (no implementation there).
        if (a.code == "BC" && sys.model == SystemModel::Polymer) continue;
        std::map<std::string, double> secs;
        for (const auto& [oname, og] : ordered)
          secs[oname] = run_algo(a, og, sys.model, nullptr);
        secs["VEBO"] = run_algo(a, vebo_graph, sys.model, &vr.partitioning);

        double best = 1e30;
        for (const auto& [_, s] : secs) best = std::min(best, s);
        auto cell = [&](const std::string& oname) {
          std::string v = Table::num(secs[oname], 4);
          if (secs[oname] == best) v += "*";
          return v;
        };
        t.add_row({a.code, cell("Orig."), cell("RCM"), cell("Gorder"),
                   cell("VEBO")});
        for (const auto& oname : {"RCM", "Gorder", "VEBO"}) {
          auto& [lg, cnt] = gmean[to_string(sys.model)][oname];
          lg += std::log(secs["Orig."] / std::max(1e-9, secs[oname]));
          ++cnt;
        }
      }
      t.print(std::cout);

      // Modeled 48-thread makespan of the PR edge kernel (the paper's
      // hardware effect): per-partition sequential times projected onto
      // the 4x12-thread machine.
      auto makespans = [&](const Graph& gr,
                           const order::Partitioning* part) {
        EngineOptions o;
        VertexId P = bench::kPaperPartitions;
        if (part != nullptr)
          o.explicit_partitioning = part;
        else
          o.partitions = P;
        Engine eng(gr, sys.model == SystemModel::Ligra
                           ? SystemModel::GraphGrind
                           : sys.model,
                   o);
        const auto times = algo::pagerank_partition_times(eng, 2);
        return std::tuple{
            metrics::makespan_static(times, bench::kPaperThreads),
            metrics::makespan_dynamic(times, bench::kPaperThreads),
            metrics::makespan_hybrid(times, bench::kPaperSockets,
                                     bench::kPaperThreadsPerSocket)};
      };
      if (sys.model == SystemModel::GraphGrind) {
        const auto r384 = order::vebo(g, bench::kPaperPartitions);
        const Graph v384 = permute(g, r384.perm);
        const auto [so, dyo, hyo] = makespans(ordered.at("Orig."), nullptr);
        const auto [sv, dyv, hyv] = makespans(v384, &r384.partitioning);
        Table m("modeled 48-thread makespan of PR kernel (ms) — " +
                spec.name);
        m.set_header({"Order", "static", "dynamic", "hybrid(4x12)"});
        m.add_row({"Orig.", Table::num(so * 1e3), Table::num(dyo * 1e3),
                   Table::num(hyo * 1e3)});
        m.add_row({"VEBO", Table::num(sv * 1e3), Table::num(dyv * 1e3),
                   Table::num(hyv * 1e3)});
        m.print(std::cout);
        std::cout << "VEBO modeled speedup: static "
                  << Table::num(so / std::max(1e-12, sv), 2) << "x, dynamic "
                  << Table::num(dyo / std::max(1e-12, dyv), 2)
                  << "x, hybrid "
                  << Table::num(hyo / std::max(1e-12, hyv), 2) << "x\n";
        // Accumulate the modeled speedups each system's scheduling policy
        // would see: Ligra ~ dynamic, Polymer ~ static, GraphGrind ~
        // hybrid (README, "Hardware substitutions").
        const bool cond = g.num_edges() >=
                          (g.max_in_degree() + 1) *
                              (bench::kPaperPartitions - 1);
        auto acc = [&](const char* sysname, double orig_mk, double vebo_mk) {
          const double lr = std::log(orig_mk / std::max(1e-12, vebo_mk));
          auto& [lg, cnt] = gmean_model[sysname];
          lg += lr;
          ++cnt;
          if (cond) {
            auto& [clg, ccnt] = gmean_model_cond[sysname];
            clg += lr;
            ++ccnt;
          }
        };
        acc("Ligra", dyo, dyv);
        acc("Polymer", so, sv);
        acc("GraphGrind", hyo, hyv);
      }
    }
  }

  std::cout << "\n== Geomean speedup over Original ==\n"
               "(measured = wall-clock on this machine, sequential-locality\n"
               " dominated; modeled = 48-thread makespan of the PR kernel\n"
               " under each system's scheduling policy — the quantity the\n"
               " paper's multi-socket runtimes reflect)\n";
  Table s("speedup summary");
  s.set_header({"System", "RCM", "Gorder", "VEBO", "VEBO modeled 48t",
                "modeled, |E|>=N(P-1)"});
  for (const auto& sys : systems) {
    std::vector<std::string> row = {to_string(sys.model)};
    for (const auto& oname : {"RCM", "Gorder", "VEBO"}) {
      const auto& [lg, cnt] = gmean[to_string(sys.model)][oname];
      row.push_back(Table::num(std::exp(lg / std::max(1, cnt)), 3) + "x");
    }
    const auto& [mlg, mcnt] = gmean_model[to_string(sys.model)];
    row.push_back(Table::num(std::exp(mlg / std::max(1, mcnt)), 3) + "x");
    const auto& [clg, ccnt] = gmean_model_cond[to_string(sys.model)];
    row.push_back(Table::num(std::exp(clg / std::max(1, ccnt)), 3) + "x");
    s.add_row(row);
  }
  s.print(std::cout);
  std::cout << "The last column restricts the makespan model to graphs\n"
               "satisfying Theorem 1's precondition — the regime all of\n"
               "the paper's (full-size) power-law graphs are in. Where the\n"
               "precondition fails at bench scale, a single hub exceeds\n"
               "|E|/P and no ordering can balance 384 partitions.\n";
  std::cout << "\nPaper reference: VEBO speedup 1.09x (Ligra), 1.41x\n"
               "(Polymer), 1.65x (GraphGrind), averaged over algorithms\n"
               "and graphs; static-scheduled systems benefit most.\n";
  return 0;
}
