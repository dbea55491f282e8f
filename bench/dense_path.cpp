// Dense-path microbenchmark: isolates the cost of one dense (pull)
// edgemap iteration as a function of frontier density, old vs new.
//
// The pre-PR dense path probed the frontier bitset once per edge even
// when the frontier was complete, atomically populated its output bitset,
// and vertex-chunked the unpartitioned destination loop. The current
// pipeline removes each cost:
//   * complete frontier  -> CompleteProbe (no per-edge membership load),
//   * striped output     -> plain stores instead of atomic RMWs,
//   * edge-balanced CSC chunks instead of vertex chunks,
//   * edge_fold          -> register accumulation, no output frontier.
//
// For each graph (rmat, powerlaw) and >= 3 frontier densities we time a
// PageRank-delta-style dense iteration (contribution fold + activation)
//   * through a faithful replica of the pre-PR pull path (per-edge
//     probe, atomic output bitset, vertex-chunked),
//   * through edge_map's pull, and
//   * through edge_fold,
// plus a per-cost breakdown at the complete-frontier point and the
// end-to-end PageRank iteration time old vs new. Results land in
// BENCH_dense.json; the headline acceptance point is the complete-
// frontier PageRank-style iteration, old probing/atomic pull vs the
// probe-free fold kernel.
//
// Knobs: VEBO_DENSE_SCALE (log2 vertices, default 20; CI smoke uses 14),
// VEBO_DENSE_REPS (median-of reps, default 5).
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "framework/edgemap.hpp"
#include "framework/engine.hpp"
#include "gen/powerlaw.hpp"
#include "gen/rmat.hpp"
#include "support/prng.hpp"
#include "support/timer.hpp"

using namespace vebo;

namespace {

/// PageRank-delta-style dense functor: accumulate mass per destination,
/// activate on first contribution. Pull-only (single writer per v), so
/// the activation tracker is a plain array.
struct PrStyleFunctor {
  const double* contrib;
  double* acc;
  std::uint8_t* seen;
  bool update(VertexId u, VertexId v) {
    acc[v] += contrib[u];
    if (seen[v]) return false;
    seen[v] = 1;
    return true;
  }
  bool update_atomic(VertexId u, VertexId v) { return update(u, v); }
  bool cond(VertexId) const { return true; }
};

/// Faithful replica of the pre-PR dense pull path: per-edge frontier
/// probe, atomic output bitset populated per activation, vertex-chunked
/// scheduling, result adopted via from_atomic.
template <typename F>
VertexSubset edge_map_pull_seed(const Engine& eng, VertexSubset& frontier,
                                F f) {
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  frontier.to_dense(eng.vertex_loop());
  const DynamicBitset& fbits = frontier.bits();
  AtomicBitset next(n);
  auto pull_range = [&](VertexId lo, VertexId hi) {
    for (VertexId v = lo; v < hi; ++v) {
      if (!f.cond(v)) continue;
      for (VertexId u : g.in_neighbors(v)) {
        if (!fbits.get(u)) continue;
        if (f.update(u, v)) next.set(v);
      }
    }
  };
  if (eng.partitioned()) {
    const auto& part = eng.partitioning();
    parallel_for(
        0, part.num_partitions(),
        [&](std::size_t p) {
          pull_range(part.begin(static_cast<VertexId>(p)),
                     part.end(static_cast<VertexId>(p)));
        },
        eng.partition_loop());
  } else {
    parallel_for_range(
        0, n,
        [&](std::size_t lo, std::size_t hi) {
          pull_range(static_cast<VertexId>(lo), static_cast<VertexId>(hi));
        },
        eng.vertex_loop());
  }
  return VertexSubset::from_atomic(std::move(next), kInvalidVertex,
                                   eng.vertex_loop());
}

/// Replica of the pre-PR hand-rolled PageRank CSC iteration (the loop
/// pagerank.cpp carried before it moved onto edge_fold).
void pagerank_iteration_seed(const Engine& eng, const std::vector<double>& contrib,
                             std::vector<double>& next, double base,
                             double damping) {
  const Graph& g = eng.graph();
  parallel_for(
      0, g.num_vertices(),
      [&](std::size_t v) {
        double acc = 0.0;
        for (VertexId u : g.in_neighbors(static_cast<VertexId>(v)))
          acc += contrib[u];
        next[v] = base + damping * acc;
      },
      eng.vertex_loop());
}

struct DensityPoint {
  double density = 0;
  VertexId frontier_size = 0;
  double seed_ms = 0;      // probing/atomic pull replica
  double new_out_ms = 0;   // edge_map pull, striped output
  double new_fold_ms = 0;  // edge_fold: no output, register accumulation
  double speedup_out = 0, speedup_fold = 0;
};

struct GraphReport {
  std::string name;
  VertexId n = 0;
  EdgeId m = 0;
  std::vector<DensityPoint> points;
};

GraphReport run_graph(const std::string& name, const Graph& g, int reps) {
  const VertexId n = g.num_vertices();
  Engine eng(g, SystemModel::Ligra);
  GraphReport rep;
  rep.name = name;
  rep.n = n;
  rep.m = g.num_edges();

  std::vector<double> contrib(n), acc(n, 0.0);
  std::vector<std::uint8_t> seen(n, 0);
  for (VertexId v = 0; v < n; ++v)
    contrib[v] = 1.0 / (static_cast<double>(g.out_degree(v)) + 1.0);
  auto reset = [&] {
    std::fill(acc.begin(), acc.end(), 0.0);
    std::fill(seen.begin(), seen.end(), 0);
  };

  Xoshiro256 rng(3);
  // Complete frontier plus sampled partial densities.
  const double densities[] = {1.0, 0.5, 0.25, 0.125};
  for (double d : densities) {
    VertexSubset base = [&] {
      if (d >= 1.0) return VertexSubset::all(n);
      std::vector<VertexId> ids;
      for (VertexId v = 0; v < n; ++v)
        if (rng.next_below(1000) < static_cast<std::uint64_t>(d * 1000))
          ids.push_back(v);
      return VertexSubset::from_sparse(n, std::move(ids));
    }();
    base.to_dense();

    DensityPoint p;
    p.density = d;
    p.frontier_size = base.size();
    PrStyleFunctor f{contrib.data(), acc.data(), seen.data()};

    p.seed_ms = 1e3 * bench::time_median([&] {
      reset();
      VertexSubset frontier = base;
      edge_map_pull_seed(eng, frontier, f);
    }, reps);
    p.new_out_ms = 1e3 * bench::time_median([&] {
      reset();
      VertexSubset frontier = base;
      edge_map(eng, frontier, f,
               {.direction = Direction::Pull, .early_exit = false});
    }, reps);
    p.new_fold_ms = 1e3 * bench::time_median([&] {
      // What PageRank-delta's dense round actually runs now: no output,
      // register accumulation, probe-free when the frontier is complete.
      VertexSubset frontier = base;
      edge_fold<double>(
          eng, frontier,
          [&](VertexId u, VertexId) { return contrib[u]; },
          [&](VertexId v, double a) { acc[v] = a; });
    }, reps);
    p.speedup_out = p.new_out_ms > 0 ? p.seed_ms / p.new_out_ms : 0;
    p.speedup_fold = p.new_fold_ms > 0 ? p.seed_ms / p.new_fold_ms : 0;
    rep.points.push_back(p);
    std::cout << name << " density=" << d << " frontier=" << p.frontier_size
              << "  seed=" << p.seed_ms << "ms new(out)=" << p.new_out_ms
              << "ms new(fold)=" << p.new_fold_ms << "ms  speedup "
              << p.speedup_out << "x / " << p.speedup_fold << "x"
              << std::endl;
  }
  return rep;
}

}  // namespace

int main() {
  const int scale = bench::env_knob("VEBO_DENSE_SCALE", 20);
  const int reps = bench::env_knob("VEBO_DENSE_REPS", 5);
  const EdgeId edge_factor = 8;

  std::cout << "Building graphs, scale=" << scale << " ..." << std::endl;
  const Graph rmat = gen::rmat(scale, edge_factor, /*seed=*/42);
  // s = 2.0 keeps the Zipf mean in-degree bounded (~H_N,1/H_N,2) so the
  // powerlaw graph stays comparable to the rmat edge budget; the default
  // s = 1.0 mean grows like N/ln N and would not fit in memory at bench
  // scales.
  const Graph pl =
      gen::zipf_directed(VertexId{1} << scale, /*seed=*/7, {.s = 2.0});
  std::cout << rmat.describe("rmat") << "\n"
            << pl.describe("powerlaw") << std::endl;

  std::vector<GraphReport> reports;
  reports.push_back(run_graph("rmat", rmat, reps));
  reports.push_back(run_graph("powerlaw", pl, reps));

  // ---- per-cost breakdown at the complete-frontier point (rmat).
  // Each step removes one cost: probe, atomic output, output entirely.
  const Graph& g = rmat;
  const VertexId n = g.num_vertices();
  Engine eng(g, SystemModel::Ligra);
  std::vector<double> contrib(n), acc(n, 0.0);
  std::vector<std::uint8_t> seen(n, 0);
  for (VertexId v = 0; v < n; ++v)
    contrib[v] = 1.0 / (static_cast<double>(g.out_degree(v)) + 1.0);
  auto reset = [&] {
    std::fill(acc.begin(), acc.end(), 0.0);
    std::fill(seen.begin(), seen.end(), 0);
  };
  PrStyleFunctor f{contrib.data(), acc.data(), seen.data()};
  VertexSubset all = VertexSubset::all(n);
  all.to_dense();
  const DynamicBitset& fbits = all.bits();

  const double flag_seed_ms = 1e3 * bench::time_median([&] {
    reset();
    VertexSubset frontier = all;
    edge_map_pull_seed(eng, frontier, f);
  }, reps);
  // Probing kernel, striped (non-atomic) output, edge-balanced chunks:
  // isolates scheduling + stripe wins from the probe win.
  const double flag_probe_stripe_ms = 1e3 * bench::time_median([&] {
    reset();
    DynamicBitset next(n);
    const BitsetProbe probe{fbits};
    for_dense_ranges(eng, [&](VertexId lo, VertexId hi) {
      StripeSink sink(next, lo, hi);
      edge_map_pull_range(g, f, probe, sink, lo, hi, false);
    });
    VertexSubset::from_bitset(std::move(next), eng.vertex_loop());
  }, reps);
  const double flag_complete_stripe_ms = 1e3 * bench::time_median([&] {
    reset();
    VertexSubset frontier = all;
    edge_map(eng, frontier, f,
             {.direction = Direction::Pull, .early_exit = false});
  }, reps);
  const double flag_complete_fold_ms = 1e3 * bench::time_median([&] {
    VertexSubset frontier = all;
    edge_fold<double>(
        eng, frontier, [&](VertexId u, VertexId) { return contrib[u]; },
        [&](VertexId v, double a) { acc[v] = a; });
  }, reps);
  std::cout << "flags (rmat, complete): seed=" << flag_seed_ms
            << "ms probe+stripe=" << flag_probe_stripe_ms
            << "ms complete+stripe=" << flag_complete_stripe_ms
            << "ms complete+fold=" << flag_complete_fold_ms << "ms"
            << std::endl;

  // ---- end-to-end PageRank iteration, old hand loop vs edge_fold.
  std::vector<double> next(n, 0.0);
  const double base = 0.15 / static_cast<double>(n);
  const double pr_seed_ms = 1e3 * bench::time_median([&] {
    pagerank_iteration_seed(eng, contrib, next, base, 0.85);
  }, reps);
  const double pr_new_ms = 1e3 * bench::time_median([&] {
    edge_fold<double>(
        eng, [&](VertexId u, VertexId) { return contrib[u]; },
        [&](VertexId v, double a) { next[v] = base + 0.85 * a; });
  }, reps);
  std::cout << "pagerank iteration: seed=" << pr_seed_ms
            << "ms new=" << pr_new_ms << "ms" << std::endl;

  // Headline acceptance point: complete-frontier PageRank-style dense
  // iteration, probing/atomic pull vs the probe-free fold kernel (what
  // the PageRank-family dense rounds run now).
  const double op_speedup =
      flag_complete_fold_ms > 0 ? flag_seed_ms / flag_complete_fold_ms : 0;

  std::ofstream json("BENCH_dense.json");
  json << "{\n  \"bench\": \"dense_path\",\n"
       << "  \"threads\": " << ThreadPool::global_threads() << ",\n"
       << "  \"reps\": " << reps << ",\n  \"graphs\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const GraphReport& r = reports[i];
    json << "    {\"graph\": \"" << r.name << "\", \"n\": " << r.n
         << ", \"m\": " << r.m << ", \"points\": [\n";
    for (std::size_t j = 0; j < r.points.size(); ++j) {
      const DensityPoint& p = r.points[j];
      json << "      {\"density\": " << p.density
           << ", \"frontier\": " << p.frontier_size
           << ", \"seed_ms\": " << p.seed_ms
           << ", \"new_out_ms\": " << p.new_out_ms
           << ", \"new_fold_ms\": " << p.new_fold_ms
           << ", \"speedup_out\": " << p.speedup_out
           << ", \"speedup_fold\": " << p.speedup_fold << "}"
           << (j + 1 < r.points.size() ? "," : "") << "\n";
    }
    json << "    ]}" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"flag_breakdown\": {\"graph\": \"rmat\", "
       << "\"density\": 1.0, \"seed_ms\": " << flag_seed_ms
       << ", \"probe_stripe_ms\": " << flag_probe_stripe_ms
       << ", \"complete_stripe_ms\": " << flag_complete_stripe_ms
       << ", \"complete_fold_ms\": " << flag_complete_fold_ms << "},\n"
       << "  \"pagerank_iteration\": {\"seed_ms\": " << pr_seed_ms
       << ", \"new_ms\": " << pr_new_ms << ", \"speedup\": "
       << (pr_new_ms > 0 ? pr_seed_ms / pr_new_ms : 0) << "},\n"
       << "  \"op_point\": {\"graph\": \"rmat\", \"density\": 1.0"
       << ", \"seed_ms\": " << flag_seed_ms
       << ", \"new_ms\": " << flag_complete_fold_ms
       << ", \"speedup\": " << op_speedup << "}\n}\n";
  json.close();
  std::cout << "Wrote BENCH_dense.json (op-point speedup " << op_speedup
            << "x)" << std::endl;
  return 0;
}
