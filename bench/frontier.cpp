// Frontier-materialization microbenchmark: isolates the cost of building
// the next frontier after a push-direction edgemap step, as a function of
// frontier density. The seed implementation followed every parallel phase
// with a serial O(n) scan, flooring each iteration at O(n) regardless of
// frontier size (the Amdahl tail the scan-compacted pipeline removes).
//
// For each frontier size we time
//   * the new scan-compacted edge_map (forced Push), and
//   * a faithful replica of the seed's push path (parallel push into an
//     atomic bitset, then a serial 0..n scan + sort-based from_sparse),
// and record both plus their ratio in BENCH_frontier.json. The headline
// acceptance point is a ~1k-vertex frontier on a 2^20-vertex graph.
//
// Knobs: VEBO_FRONTIER_SCALE (log2 vertices, default 20; CI smoke uses
// 14), VEBO_FRONTIER_REPS (median-of reps, default 5).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "framework/edgemap.hpp"
#include "framework/engine.hpp"
#include "gen/rmat.hpp"
#include "support/prng.hpp"
#include "support/timer.hpp"

using namespace vebo;

namespace {

/// Delivers every active edge; activates every touched destination.
/// Stateless, so repeated timing runs see identical work.
struct TouchFunctor {
  bool update(VertexId, VertexId) { return true; }
  bool update_atomic(VertexId, VertexId) { return true; }
  bool cond(VertexId) const { return true; }
};

/// The seed's sparse push path: parallel edge phase, then the serial O(n)
/// tail (bit-by-bit scan + sorting from_sparse) this PR eliminated.
template <typename F>
VertexSubset edge_map_push_seed(const Engine& eng, VertexSubset& frontier,
                                F f) {
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  AtomicBitset next(n);
  frontier.to_sparse();
  auto ids = frontier.vertices();
  parallel_for(
      0, ids.size(),
      [&](std::size_t i) {
        const VertexId u = ids[i];
        for (VertexId v : g.out_neighbors(u))
          if (f.cond(v) && f.update_atomic(u, v)) next.set(v);
      },
      eng.vertex_loop());
  std::vector<VertexId> out;
  for (VertexId v = 0; v < n; ++v)
    if (next.get(v)) out.push_back(v);
  return VertexSubset::from_sparse(n, std::move(out));
}

struct Point {
  std::size_t frontier_size = 0;
  EdgeId frontier_edges = 0;
  VertexId out_size = 0;
  double new_ms = 0, seed_ms = 0, speedup = 0;
  double to_dense_ms = 0, to_sparse_ms = 0;
};

}  // namespace

int main() {
  const int scale = bench::env_knob("VEBO_FRONTIER_SCALE", 20);
  const int reps = bench::env_knob("VEBO_FRONTIER_REPS", 5);
  const EdgeId edge_factor = 8;

  std::cout << "Building rmat graph, scale=" << scale << " ..." << std::endl;
  const Graph g = gen::rmat(scale, edge_factor, /*seed=*/42);
  const VertexId n = g.num_vertices();
  std::cout << g.describe("rmat") << std::endl;
  Engine eng(g, SystemModel::Ligra);

  if (n / 8 < 256) {
    std::cerr << "VEBO_FRONTIER_SCALE=" << scale
              << " too small: need at least 2^11 vertices" << std::endl;
    return 1;
  }
  Xoshiro256 rng(7);
  std::vector<Point> points;
  for (std::size_t fsz = 256; fsz <= static_cast<std::size_t>(n) / 8;
       fsz *= 4) {
    // Random frontier of ~fsz distinct vertices.
    std::vector<VertexId> ids;
    ids.reserve(fsz);
    for (std::size_t i = 0; i < fsz; ++i)
      ids.push_back(static_cast<VertexId>(rng.next_below(n)));
    VertexSubset base = VertexSubset::from_sparse(n, std::move(ids));

    Point p;
    p.frontier_size = base.size();
    p.frontier_edges = base.out_edges(g);
    TouchFunctor f;

    p.new_ms = 1e3 * bench::time_median([&] {
      VertexSubset frontier = base;  // copy: edge_map may convert in place
      VertexSubset out =
          edge_map(eng, frontier, f, {.direction = Direction::Push});
      p.out_size = out.size();
    }, reps);
    p.seed_ms = 1e3 * bench::time_median([&] {
      VertexSubset frontier = base;
      VertexSubset out = edge_map_push_seed(eng, frontier, f);
      p.out_size = out.size();
    }, reps);
    p.speedup = p.new_ms > 0 ? p.seed_ms / p.new_ms : 0.0;

    // Representation-conversion cost in isolation (fresh subsets each
    // rep so the dual-representation cache cannot short-circuit).
    p.to_dense_ms = 1e3 * bench::time_median([&] {
      VertexSubset s =
          VertexSubset::from_packed(n,
                                    {base.vertices().begin(),
                                     base.vertices().end()},
                                    /*sorted=*/true);
      s.to_dense();
    }, reps);
    VertexSubset dense = base;
    dense.to_dense();
    p.to_sparse_ms = 1e3 * bench::time_median([&] {
      VertexSubset s = VertexSubset::from_bitset(dense.bits());
      s.to_sparse();
    }, reps);

    points.push_back(p);
    std::cout << "frontier=" << p.frontier_size
              << " edges=" << p.frontier_edges << " out=" << p.out_size
              << "  new=" << p.new_ms << "ms seed=" << p.seed_ms
              << "ms speedup=" << p.speedup << "x" << std::endl;
  }

  std::ofstream json("BENCH_frontier.json");
  json << "{\n  \"bench\": \"frontier_pipeline\",\n"
       << "  \"graph\": \"rmat\",\n"
       << "  \"n\": " << n << ",\n  \"m\": " << g.num_edges() << ",\n"
       << "  \"threads\": " << ThreadPool::global_threads() << ",\n"
       << "  \"reps\": " << reps << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    json << "    {\"frontier\": " << p.frontier_size
         << ", \"frontier_edges\": " << p.frontier_edges
         << ", \"out\": " << p.out_size << ", \"new_ms\": " << p.new_ms
         << ", \"seed_ms\": " << p.seed_ms << ", \"speedup\": " << p.speedup
         << ", \"to_dense_ms\": " << p.to_dense_ms
         << ", \"to_sparse_ms\": " << p.to_sparse_ms << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  // Headline acceptance point: the ~1k frontier (second point).
  const Point& op = points.size() > 1 ? points[1] : points[0];
  json << "  ],\n  \"op_point\": {\"frontier\": " << op.frontier_size
       << ", \"new_ms\": " << op.new_ms << ", \"seed_ms\": " << op.seed_ms
       << ", \"speedup\": " << op.speedup << "}\n}\n";
  json.close();
  std::cout << "Wrote BENCH_frontier.json (op-point speedup " << op.speedup
            << "x)" << std::endl;
  return 0;
}
