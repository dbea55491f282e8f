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
// and record both plus the ratio of their medians in BENCH_frontier.json
// (bench::Record). The headline acceptance point is a ~1k-vertex frontier
// on a 2^20-vertex graph.
//
// Knobs: VEBO_FRONTIER_SCALE (log2 vertices, default 20; CI smoke uses
// 14), VEBO_FRONTIER_REPS (timed reps per value, default 5).
#include <cstdlib>
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

}  // namespace

int main() {
  bench::Record rec("frontier");
  const int scale = rec.knob("VEBO_FRONTIER_SCALE", 20);
  const int reps = rec.knob("VEBO_FRONTIER_REPS", 5);
  rec.lock_settings();
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
  std::vector<bench::Fields> points;
  for (std::size_t fsz = 256; fsz <= static_cast<std::size_t>(n) / 8;
       fsz *= 4) {
    // Random frontier of ~fsz distinct vertices.
    std::vector<VertexId> ids;
    ids.reserve(fsz);
    for (std::size_t i = 0; i < fsz; ++i)
      ids.push_back(static_cast<VertexId>(rng.next_below(n)));
    VertexSubset base = VertexSubset::from_sparse(n, std::move(ids));

    const EdgeId frontier_edges = base.out_edges(g);
    VertexId out_size = 0;
    TouchFunctor f;
    const Summary new_ms = bench::sample_ms([&] {
      VertexSubset frontier = base;  // copy: edge_map may convert in place
      VertexSubset out =
          edge_map(eng, frontier, f, {.direction = Direction::Push});
      out_size = out.size();
    }, reps);
    const Summary seed_ms = bench::sample_ms([&] {
      VertexSubset frontier = base;
      VertexSubset out = edge_map_push_seed(eng, frontier, f);
      out_size = out.size();
    }, reps);
    const double speedup = bench::ratio(seed_ms.median, new_ms.median);

    // Representation-conversion cost in isolation (fresh subsets each
    // rep so the dual-representation cache cannot short-circuit).
    const Summary to_dense_ms = bench::sample_ms([&] {
      VertexSubset s =
          VertexSubset::from_packed(n,
                                    {base.vertices().begin(),
                                     base.vertices().end()},
                                    /*sorted=*/true);
      s.to_dense();
    }, reps);
    VertexSubset dense = base;
    dense.to_dense();
    const Summary to_sparse_ms = bench::sample_ms([&] {
      VertexSubset s = VertexSubset::from_bitset(dense.bits());
      s.to_sparse();
    }, reps);

    points.push_back(bench::Fields()
                         .set("frontier", base.size())
                         .set("frontier_edges", frontier_edges)
                         .set("out", out_size)
                         .set("new_ms", new_ms)
                         .set("seed_ms", seed_ms)
                         .set("speedup", speedup)
                         .set("to_dense_ms", to_dense_ms)
                         .set("to_sparse_ms", to_sparse_ms));
    std::cout << "frontier=" << base.size()
              << " edges=" << frontier_edges << " out=" << out_size
              << "  new=" << new_ms.median << "ms seed=" << seed_ms.median
              << "ms speedup=" << speedup << "x" << std::endl;
  }

  rec.set("graph", "rmat").set("n", n).set("m", g.num_edges());
  rec.set("points", points);
  // Headline acceptance point: the ~1k frontier (second point).
  rec.op_point(points.size() > 1 ? points[1] : points[0]);
  rec.write();
  return 0;
}
