#include "algorithms/pagerank.hpp"

#include <algorithm>

#include "algorithms/incremental.hpp"
#include "framework/edgemap.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace vebo::algo {

namespace {

/// Ranks after `iterations` power steps, or their top_k when top_k > 0.
QueryPayload run_pr(const Engine& eng, const QueryParams& p) {
  const auto iterations = static_cast<int>(p.get_int("iterations"));
  const double damping = p.get_float("damping");
  const auto k = static_cast<std::size_t>(p.get_int("top_k"));
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  VEBO_CHECK(n > 0, "pagerank: empty graph");
  const double init = 1.0 / static_cast<double>(n);
  const double base = (1.0 - damping) / static_cast<double>(n);

  std::vector<double> rank(n, init), next(n, 0.0), contrib(n, 0.0);

  for (int it = 0; it < iterations; ++it) {
    obs::SpanScope iter(obs::SpanKind::Iteration);
    if (iter.live()) {
      iter.span().a = static_cast<std::uint64_t>(it);
      iter.span().b = n;  // power iteration: every vertex is active
    }
    // contrib[u] = rank[u] / outdeg[u]; dangling vertices contribute 0
    // (Ligra's convention).
    parallel_for(
        0, n,
        [&](std::size_t u) {
          const EdgeId d = g.out_degree(static_cast<VertexId>(u));
          contrib[u] = d ? rank[u] / static_cast<double>(d) : 0.0;
        },
        eng.vertex_loop());

    // CSC pull through the framework's dense fold kernel: probe-free,
    // output-free, register-accumulating, edge-balanced on Ligra and
    // partition-per-task on the partitioned models.
    edge_fold<double>(
        eng, [&](VertexId u, VertexId) { return contrib[u]; },
        [&](VertexId v, double acc) { next[v] = base + damping * acc; });
    rank.swap(next);
  }
  return k > 0 ? QueryPayload::top_k(top_k_of(rank, k))
               : QueryPayload::vertex_doubles(std::move(rank));
}

}  // namespace

AlgorithmSpec pagerank_spec() {
  AlgorithmSpec s;
  s.code = "PR";
  s.params = ParamSchema{
      {"iterations", ParamType::Int, std::int64_t{10}, 0, kMaxIterations},
      {"damping", ParamType::Float, 0.85},
      {"top_k", ParamType::Int, std::int64_t{0}, 0}};
  s.run = run_pr;
  s.checksum = block_sum;
  s.refresh = [](const Engine& eng, const QueryParams& p,
                 const QueryPayload& prev, const EdgeDelta& delta) {
    const VertexId n = eng.graph().num_vertices();
    if (p.get_int("top_k") > 0 || prev.kind() != PayloadKind::VertexDoubles ||
        prev.doubles().size() != n ||
        !refresh_worthwhile(eng, delta, kRefreshRunFallbackFraction))
      return run_pr(eng, p);
    // Warm-start converges to the power method's fixed point; epsilon is
    // pinned tight so the refreshed vector agrees with a converged
    // scratch run at summation-noise scale. The round cap scales with
    // the entry's own iteration budget but never below 32 (a warm start
    // typically needs only a handful of rounds).
    return QueryPayload::vertex_doubles(refresh_pagerank(
        eng, prev.doubles(), delta, p.get_float("damping"),
        /*epsilon=*/1e-8,
        std::max(static_cast<int>(p.get_int("iterations")), 32)));
  };
  return s;
}

std::vector<double> pagerank_partition_times(const Engine& eng, int repeats) {
  VEBO_CHECK(eng.partitioned(),
             "pagerank_partition_times requires a partitioned engine");
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  const auto& part = eng.partitioning();
  const std::size_t P = part.num_partitions();

  std::vector<double> contrib(n);
  for (VertexId u = 0; u < n; ++u) {
    const EdgeId d = g.out_degree(u);
    contrib[u] = d ? 1.0 / static_cast<double>(n) / static_cast<double>(d)
                   : 0.0;
  }
  std::vector<double> acc(n, 0.0);
  // The timed kernel is the per-destination pull loop the frameworks run
  // for a dense PR iteration: its cost has an edge term (the inner loop)
  // AND a destination term (loop entry, frontier/state check, store) —
  // the two components the paper's Figure 1 identifies.
  auto process = [&](VertexId lo, VertexId hi) {
    const double base = 0.15 / static_cast<double>(n);
    for (VertexId v = lo; v < hi; ++v) {
      double a = 0.0;
      for (VertexId u : g.in_neighbors(v)) a += contrib[u];
      acc[v] = base + 0.85 * a;
    }
  };
  // Warm-up pass so cold-cache effects do not bias the first partitions.
  process(0, n);

  std::vector<double> best(P, 0.0);
  // Each measurement repeats the kernel until ~256k edges+vertices have
  // been processed so clock granularity does not dominate small
  // partitions; min over repeats filters scheduling noise; alternating
  // sweep direction cancels position-dependent drift (frequency ramps).
  for (int r = 0; r < std::max(2, repeats); ++r) {
    for (std::size_t i = 0; i < P; ++i) {
      const std::size_t p = (r % 2 == 0) ? i : P - 1 - i;
      const VertexId lo = part.begin(static_cast<VertexId>(p));
      const VertexId hi = part.end(static_cast<VertexId>(p));
      EdgeId work = hi - lo;
      for (VertexId v = lo; v < hi; ++v) work += g.in_degree(v);
      const int inner = static_cast<int>(
          1 + (std::size_t{1} << 18) / std::max<EdgeId>(1, work));
      Timer t;
      for (int k = 0; k < inner; ++k) process(lo, hi);
      const double dt = t.elapsed() / inner;
      if (r == 0 || dt < best[p]) best[p] = dt;
    }
  }
  return best;
}

}  // namespace vebo::algo
