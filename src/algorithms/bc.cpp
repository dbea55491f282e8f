#include "algorithms/bc.hpp"

#include <atomic>

#include "framework/edgemap.hpp"
#include "support/error.hpp"

namespace vebo::algo {

namespace {

struct ForwardFunctor {
  std::atomic<double>* sigma;
  const AtomicBitset* visited;

  bool update(VertexId u, VertexId v) {
    // Pull: single writer per v.
    const double add = sigma[u].load(std::memory_order_relaxed);
    const double old = sigma[v].load(std::memory_order_relaxed);
    sigma[v].store(old + add, std::memory_order_relaxed);
    return old == 0.0;
  }

  bool update_atomic(VertexId u, VertexId v) {
    const double add = sigma[u].load(std::memory_order_relaxed);
    double cur = sigma[v].load(std::memory_order_relaxed);
    for (;;) {
      if (sigma[v].compare_exchange_weak(cur, cur + add,
                                         std::memory_order_relaxed))
        return cur == 0.0;
    }
  }

  bool cond(VertexId v) const { return !visited->get(v); }
};

/// Dependencies from `source`, or their top_k when top_k > 0.
QueryPayload run_bc(const Engine& eng, const QueryParams& p) {
  const VertexId source = p.get_vertex("source");
  const auto k = static_cast<std::size_t>(p.get_int("top_k"));
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  VEBO_CHECK(source < n, "betweenness: source out of range");

  std::vector<std::atomic<double>> sigma(n);
  for (auto& s : sigma) s.store(0.0, std::memory_order_relaxed);
  sigma[source].store(1.0, std::memory_order_relaxed);

  AtomicBitset visited(n);
  visited.set(source);
  std::vector<VertexId> level(n, kInvalidVertex);
  level[source] = 0;

  // Forward phase: BFS levels with path counting.
  std::vector<std::vector<VertexId>> levels;  // level -> vertices
  levels.push_back({source});
  VertexSubset frontier = VertexSubset::single(n, source);
  ForwardFunctor f{sigma.data(), &visited};
  int depth = 0;
  while (!frontier.empty_set()) {
    obs::SpanScope iter(obs::SpanKind::Iteration);
    if (iter.live()) {
      iter.span().a = static_cast<std::uint64_t>(depth);
      iter.span().b = frontier.size();
    }
    // Note: cond() must stay true for v during the whole round so that
    // every same-level predecessor contributes to sigma[v]; visited is
    // only updated after the edgemap (Ligra's BC does the same).
    VertexSubset next = edge_map(eng, frontier, f, {.early_exit = false});
    ++depth;
    vertex_map(eng, next, [&](VertexId v) {
      visited.set(v);
      level[v] = static_cast<VertexId>(depth);
    });
    next.to_sparse(eng.vertex_loop());
    auto ids = next.vertices();
    if (ids.empty()) break;
    levels.emplace_back(ids.begin(), ids.end());
    frontier = std::move(next);
  }

  // Backward phase: dependency accumulation over levels in reverse.
  // delta[v] = sum over successors w (level[w] = level[v]+1, edge v->w) of
  // sigma[v]/sigma[w] * (1 + delta[w]). Writes touch only delta[v], so the
  // per-level loop is race-free.
  std::vector<double> delta(n, 0.0);
  for (std::size_t d = levels.size(); d-- > 1;) {
    // Superstep boundary: the backward sweep runs one hand-rolled
    // parallel pass per BFS level, so poll here (the forward phase is
    // covered by edge_map's own poll).
    eng.poll_cancellation();
    const auto& members = levels[d - 1];
    parallel_for(
        0, members.size(),
        [&](std::size_t i) {
          const VertexId v = members[i];
          const double sv = sigma[v].load(std::memory_order_relaxed);
          double acc = 0.0;
          for (VertexId w : g.out_neighbors(v)) {
            if (level[w] != level[v] + 1) continue;
            const double sw = sigma[w].load(std::memory_order_relaxed);
            if (sw > 0.0) acc += sv / sw * (1.0 + delta[w]);
          }
          delta[v] += acc;
        },
        eng.vertex_loop());
  }

  return k > 0 ? QueryPayload::top_k(top_k_of(delta, k))
               : QueryPayload::vertex_doubles(std::move(delta));
}

}  // namespace

AlgorithmSpec bc_spec() {
  AlgorithmSpec s;
  s.code = "BC";
  s.params = ParamSchema{{"source", ParamType::Int, std::int64_t{0}},
                         {"top_k", ParamType::Int, std::int64_t{0}, 0}};
  s.run = run_bc;
  s.checksum = serial_sum;
  return s;
}

}  // namespace vebo::algo
