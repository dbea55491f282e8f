#include "algorithms/bfs.hpp"

#include <atomic>

#include "algorithms/incremental.hpp"
#include "framework/edgemap.hpp"
#include "support/error.hpp"

namespace vebo::algo {

namespace {

struct BfsFunctor {
  std::atomic<VertexId>* parent;

  bool update(VertexId u, VertexId v) {
    // Pull direction: only one thread owns v, plain store is fine but we
    // keep the atomic store for uniformity.
    if (parent[v].load(std::memory_order_relaxed) == kInvalidVertex) {
      parent[v].store(u, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  bool update_atomic(VertexId u, VertexId v) {
    VertexId expected = kInvalidVertex;
    return parent[v].compare_exchange_strong(expected, u,
                                             std::memory_order_relaxed);
  }

  bool cond(VertexId v) const {
    return parent[v].load(std::memory_order_relaxed) == kInvalidVertex;
  }
};

/// Levels from `source`. parent[] is the functor's visited marker: a
/// vertex is claimed once, by the first frontier vertex that reaches it.
QueryPayload run_bfs(const Engine& eng, const QueryParams& p) {
  const VertexId source = p.get_vertex("source");
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  VEBO_CHECK(source < n, "bfs: source out of range");

  std::vector<std::atomic<VertexId>> parent(n);
  for (auto& p : parent) p.store(kInvalidVertex, std::memory_order_relaxed);
  parent[source].store(source, std::memory_order_relaxed);

  std::vector<VertexId> level(n, kInvalidVertex);
  level[source] = 0;

  VertexSubset frontier = VertexSubset::single(n, source);
  BfsFunctor f{parent.data()};
  int round = 0;
  while (!frontier.empty_set()) {
    obs::SpanScope iter(obs::SpanKind::Iteration);
    if (iter.live()) {
      iter.span().a = static_cast<std::uint64_t>(round);
      iter.span().b = frontier.size();
    }
    VertexSubset next = edge_map(eng, frontier, f);
    ++round;
    vertex_map(eng, next,
               [&](VertexId v) { level[v] = static_cast<VertexId>(round); });
    frontier = std::move(next);
  }
  return QueryPayload::vertex_ids(std::move(level));
}

}  // namespace

AlgorithmSpec bfs_spec() {
  AlgorithmSpec s;
  s.code = "BFS";
  s.params = ParamSchema{{"source", ParamType::Int, std::int64_t{0}}};
  s.run = run_bfs;
  s.refresh = [](const Engine& eng, const QueryParams& p,
                 const QueryPayload& prev, const EdgeDelta& delta) {
    const VertexId n = eng.graph().num_vertices();
    const VertexId src = p.get_vertex("source");
    if (prev.kind() != PayloadKind::VertexIds ||
        prev.values_are_vertex_ids() || prev.ids().size() != n || src >= n ||
        prev.ids()[src] != 0 ||
        !refresh_worthwhile(eng, delta, kRefreshRunFallbackFraction))
      return run_bfs(eng, p);
    // Bit-exact: levels have a unique fixed point, reached by the
    // two-phase repair.
    return QueryPayload::vertex_ids(
        refresh_bfs_levels(eng, src, prev.ids(), delta));
  };
  s.checksum = [](const QueryPayload& p) {
    double reached = 0;
    for (VertexId l : p.ids())
      if (l != kInvalidVertex) reached += 1;
    return reached;
  };
  return s;
}

}  // namespace vebo::algo
