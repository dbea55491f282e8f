#include "algorithms/bp.hpp"

#include <cmath>

#include "framework/edgemap.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace vebo::algo {

namespace {

/// Beliefs after `iterations` synchronous rounds.
QueryPayload run_bp(const Engine& eng, const QueryParams& p) {
  const auto iterations = static_cast<int>(p.get_int("iterations"));
  const double coupling = p.get_float("coupling");
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  VEBO_CHECK(n > 0, "belief_propagation: empty graph");

  // Deterministic prior log-odds in [-1, 1].
  std::vector<double> prior(n);
  for (VertexId v = 0; v < n; ++v)
    prior[v] = (static_cast<double>(mix64(v) % 2001) - 1000.0) / 1000.0;

  std::vector<double> belief(prior);
  std::vector<double> incoming(n, 0.0);
  std::vector<double> msg(n, 0.0);  // outgoing message value per source

  for (int it = 0; it < iterations; ++it) {
    obs::SpanScope iter(obs::SpanKind::Iteration);
    if (iter.live()) {
      iter.span().a = static_cast<std::uint64_t>(it);
      iter.span().b = n;  // synchronous BP: every vertex updates
    }
    // Message from u is a saturating function of u's current belief.
    parallel_for(
        0, n,
        [&](std::size_t u) {
          msg[u] = coupling * std::tanh(belief[u]);
        },
        eng.vertex_loop());

    // Accumulate incoming messages per destination through the dense
    // fold (polls the query context at entry); commit covers every
    // destination, so no zero-fill pass is needed.
    edge_fold<double>(
        eng, [&](VertexId u, VertexId) { return msg[u]; },
        [&](VertexId v, double a) { incoming[v] = a; });

    parallel_for(
        0, n, [&](std::size_t v) { belief[v] = prior[v] + incoming[v]; },
        eng.vertex_loop());
  }
  return QueryPayload::vertex_doubles(std::move(belief));
}

}  // namespace

AlgorithmSpec bp_spec() {
  AlgorithmSpec s;
  s.code = "BP";
  s.params = ParamSchema{
      {"iterations", ParamType::Int, std::int64_t{10}, 0, kMaxIterations},
      {"coupling", ParamType::Float, 0.5}};
  s.run = run_bp;
  s.checksum = block_sum;
  return s;
}

}  // namespace vebo::algo
