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
// BENCH_dense.json (bench::Record); the headline acceptance point is the
// complete-frontier PageRank-style iteration, old probing/atomic pull vs
// the probe-free fold kernel.
//
// Knobs: VEBO_DENSE_SCALE (log2 vertices, default 20; CI smoke uses 14),
// VEBO_DENSE_REPS (timed reps per value, default 5).
#include <cstdlib>
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

/// Times the dense paths on `g` at each frontier density.
bench::Fields run_graph(const std::string& name, const Graph& g, int reps) {
  const VertexId n = g.num_vertices();
  Engine eng(g, SystemModel::Ligra);
  std::vector<bench::Fields> points;

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

    PrStyleFunctor f{contrib.data(), acc.data(), seen.data()};

    const Summary seed_ms = bench::sample_ms([&] {
      reset();
      VertexSubset frontier = base;
      edge_map_pull_seed(eng, frontier, f);
    }, reps);
    const Summary new_out_ms = bench::sample_ms([&] {
      reset();
      VertexSubset frontier = base;
      edge_map(eng, frontier, f,
               {.direction = Direction::Pull, .early_exit = false});
    }, reps);
    const Summary new_fold_ms = bench::sample_ms([&] {
      // What PageRank-delta's dense round actually runs now: no output,
      // register accumulation, probe-free when the frontier is complete.
      VertexSubset frontier = base;
      edge_fold<double>(
          eng, frontier,
          [&](VertexId u, VertexId) { return contrib[u]; },
          [&](VertexId v, double a) { acc[v] = a; });
    }, reps);
    const double speedup_out =
        bench::ratio(seed_ms.median, new_out_ms.median);
    const double speedup_fold =
        bench::ratio(seed_ms.median, new_fold_ms.median);
    points.push_back(bench::Fields()
                         .set("density", d)
                         .set("frontier", base.size())
                         .set("seed_ms", seed_ms)
                         .set("new_out_ms", new_out_ms)
                         .set("new_fold_ms", new_fold_ms)
                         .set("speedup_out", speedup_out)
                         .set("speedup_fold", speedup_fold));
    std::cout << name << " density=" << d << " frontier=" << base.size()
              << "  seed=" << seed_ms.median
              << "ms new(out)=" << new_out_ms.median
              << "ms new(fold)=" << new_fold_ms.median << "ms  speedup "
              << speedup_out << "x / " << speedup_fold << "x" << std::endl;
  }
  return bench::Fields()
      .set("graph", name)
      .set("n", n)
      .set("m", g.num_edges())
      .set("points", points);
}

}  // namespace

int main() {
  bench::Record rec("dense");
  const int scale = rec.knob("VEBO_DENSE_SCALE", 20);
  const int reps = rec.knob("VEBO_DENSE_REPS", 5);
  rec.lock_settings();
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

  rec.set("graphs", std::vector{run_graph("rmat", rmat, reps),
                                run_graph("powerlaw", pl, reps)});

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

  const Summary flag_seed_ms = bench::sample_ms([&] {
    reset();
    VertexSubset frontier = all;
    edge_map_pull_seed(eng, frontier, f);
  }, reps);
  // Probing kernel, striped (non-atomic) output, edge-balanced chunks:
  // isolates scheduling + stripe wins from the probe win.
  const Summary flag_probe_stripe_ms = bench::sample_ms([&] {
    reset();
    DynamicBitset next(n);
    const BitsetProbe probe{fbits};
    for_dense_ranges(eng, [&](VertexId lo, VertexId hi) {
      StripeSink sink(next, lo, hi);
      edge_map_pull_range(g, f, probe, sink, lo, hi, false);
    });
    VertexSubset::from_bitset(std::move(next), eng.vertex_loop());
  }, reps);
  const Summary flag_complete_stripe_ms = bench::sample_ms([&] {
    reset();
    VertexSubset frontier = all;
    edge_map(eng, frontier, f,
             {.direction = Direction::Pull, .early_exit = false});
  }, reps);
  const Summary flag_complete_fold_ms = bench::sample_ms([&] {
    VertexSubset frontier = all;
    edge_fold<double>(
        eng, frontier, [&](VertexId u, VertexId) { return contrib[u]; },
        [&](VertexId v, double a) { acc[v] = a; });
  }, reps);
  std::cout << "flags (rmat, complete): seed=" << flag_seed_ms.median
            << "ms probe+stripe=" << flag_probe_stripe_ms.median
            << "ms complete+stripe=" << flag_complete_stripe_ms.median
            << "ms complete+fold=" << flag_complete_fold_ms.median << "ms"
            << std::endl;
  rec.set("flag_breakdown", bench::Fields()
                                .set("graph", "rmat")
                                .set("density", 1.0)
                                .set("seed_ms", flag_seed_ms)
                                .set("probe_stripe_ms", flag_probe_stripe_ms)
                                .set("complete_stripe_ms",
                                     flag_complete_stripe_ms)
                                .set("complete_fold_ms",
                                     flag_complete_fold_ms));

  // ---- end-to-end PageRank iteration, old hand loop vs edge_fold.
  std::vector<double> next(n, 0.0);
  const double base = 0.15 / static_cast<double>(n);
  const Summary pr_seed_ms = bench::sample_ms([&] {
    pagerank_iteration_seed(eng, contrib, next, base, 0.85);
  }, reps);
  const Summary pr_new_ms = bench::sample_ms([&] {
    edge_fold<double>(
        eng, [&](VertexId u, VertexId) { return contrib[u]; },
        [&](VertexId v, double a) { next[v] = base + 0.85 * a; });
  }, reps);
  std::cout << "pagerank iteration: seed=" << pr_seed_ms.median
            << "ms new=" << pr_new_ms.median << "ms" << std::endl;
  rec.set("pagerank_iteration",
          bench::Fields()
              .set("seed_ms", pr_seed_ms)
              .set("new_ms", pr_new_ms)
              .set("speedup", bench::ratio(pr_seed_ms.median,
                                           pr_new_ms.median)));

  // Headline acceptance point: complete-frontier PageRank-style dense
  // iteration, probing/atomic pull vs the probe-free fold kernel (what
  // the PageRank-family dense rounds run now).
  rec.op_point(bench::Fields()
                   .set("graph", "rmat")
                   .set("density", 1.0)
                   .set("seed_ms", flag_seed_ms)
                   .set("new_ms", flag_complete_fold_ms)
                   .set("speedup", bench::ratio(flag_seed_ms.median,
                                                flag_complete_fold_ms.median)));
  rec.write();
  return 0;
}
