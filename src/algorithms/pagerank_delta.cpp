#include "algorithms/pagerank_delta.hpp"

#include <cmath>

#include "algorithms/incremental.hpp"
#include "framework/edgemap.hpp"
#include "parallel/scan_pack.hpp"
#include "support/error.hpp"

namespace vebo::algo {

namespace {

/// Ranks, or their top_k when top_k > 0.
QueryPayload run_prd(const Engine& eng, const QueryParams& p) {
  const auto max_iters = static_cast<int>(p.get_int("max_iters"));
  const double damping = p.get_float("damping");
  const double epsilon = p.get_float("epsilon");
  const auto k = static_cast<std::size_t>(p.get_int("top_k"));
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  VEBO_CHECK(n > 0, "pagerank_delta: empty graph");
  const double one_over_n = 1.0 / static_cast<double>(n);
  const double base = (1.0 - damping) * one_over_n;

  // rank accumulates; delta holds the change applied this iteration.
  std::vector<double> rank(n, 0.0);
  std::vector<double> delta(n, one_over_n);
  std::vector<double> contrib(n, 0.0);
  std::vector<double> acc(n, 0.0);

  VertexSubset frontier = VertexSubset::all(n);

  for (int it = 0; it < max_iters && !frontier.empty_set(); ++it) {
    obs::SpanScope iter(obs::SpanKind::Iteration);
    if (iter.live()) {
      iter.span().a = static_cast<std::uint64_t>(it);
      iter.span().b = frontier.size();
    }

    // contrib[u] = delta[u]/outdeg(u) for active u.
    vertex_map(eng, frontier, [&](VertexId u) {
      const EdgeId d = g.out_degree(u);
      contrib[u] = d ? delta[u] / static_cast<double>(d) : 0.0;
    });

    // acc[v] = sum of contrib over active in-neighbors, via the unified
    // dense fold kernel (single writer per v, race-free; edge-balanced
    // on Ligra). The complete first rounds dispatch to the probe-free
    // specialization; the activation set comes from the delta pass
    // below, so the traversal runs fully output-free.
    edge_fold<double>(
        eng, frontier, [&](VertexId u, VertexId) { return contrib[u]; },
        [&](VertexId v, double a) { acc[v] = a; });

    // New delta and the next frontier: vertices whose rank moved by more
    // than epsilon relative to its magnitude stay active. On the first
    // iteration the propagated delta is r_1 - r_0 (Ligra subtracts the
    // initial mass), which makes accumulated deltas match the power
    // method exactly. The per-vertex update is independent, so it runs
    // parallel; the surviving vertices are packed by scan compaction.
    parallel_for(
        0, n,
        [&](std::size_t i) {
          const VertexId v = static_cast<VertexId>(i);
          double d = damping * acc[v];
          if (it == 0) {
            d += base - one_over_n;     // delta_1 = r_1 - r_0
            rank[v] += d + one_over_n;  // rank becomes r_1
          } else {
            rank[v] += d;
          }
          delta[v] =
              std::abs(d) > epsilon * std::max(rank[v], one_over_n)
                  ? d
                  : 0.0;
        },
        eng.vertex_loop());
    frontier = VertexSubset::from_packed(
        n,
        pack_map<VertexId>(
            n, [&](std::size_t v) { return delta[v] != 0.0; },
            [&](std::size_t v) { return static_cast<VertexId>(v); },
            eng.vertex_loop()),
        /*sorted=*/true);
  }
  return k > 0 ? QueryPayload::top_k(top_k_of(rank, k))
               : QueryPayload::vertex_doubles(std::move(rank));
}

}  // namespace

AlgorithmSpec pagerank_delta_spec() {
  AlgorithmSpec s;
  s.code = "PRD";
  s.params = ParamSchema{
      {"max_iters", ParamType::Int, std::int64_t{10}, 0, kMaxIterations},
      {"damping", ParamType::Float, 0.85},
      {"epsilon", ParamType::Float, 1e-2},
      {"top_k", ParamType::Int, std::int64_t{0}, 0}};
  s.run = run_prd;
  s.checksum = serial_sum;
  s.refresh = [](const Engine& eng, const QueryParams& p,
                 const QueryPayload& prev, const EdgeDelta& delta) {
    const VertexId n = eng.graph().num_vertices();
    if (p.get_int("top_k") > 0 || prev.kind() != PayloadKind::VertexDoubles ||
        prev.doubles().size() != n ||
        !refresh_worthwhile(eng, delta, kRefreshRunFallbackFraction))
      return run_prd(eng, p);
    // Same residual-propagation kernel PRD itself uses, warm-started
    // from the previous epoch's ranks and driven by the entry's own
    // epsilon/max_iters knobs — same stopping rule as a scratch run.
    return QueryPayload::vertex_doubles(refresh_pagerank(
        eng, prev.doubles(), delta, p.get_float("damping"),
        p.get_float("epsilon"),
        std::max(static_cast<int>(p.get_int("max_iters")), 32)));
  };
  return s;
}

}  // namespace vebo::algo
