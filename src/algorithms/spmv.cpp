#include "algorithms/spmv.hpp"

#include "framework/edgemap.hpp"
#include "support/error.hpp"

namespace vebo::algo {

SpmvResult spmv(const Engine& eng, const std::vector<double>& x) {
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  VEBO_CHECK(x.size() == n, "spmv: x size mismatch");

  SpmvResult res;
  res.y.assign(n, 0.0);

  // SpMV is a single superstep; the span makes it show up in traces
  // like every other algorithm's iterations do.
  obs::SpanScope iter(obs::SpanKind::Iteration);
  if (iter.live()) {
    iter.span().a = 0;
    iter.span().b = n;
  }

  // The framework's dense fold on every model: each destination
  // accumulates its in-edges in ascending source order, so y is
  // bit-identical across Ligra, Polymer and GraphGrind.
  edge_fold<double>(
      eng, [&](VertexId u, VertexId v) { return edge_weight(u, v) * x[u]; },
      [&](VertexId v, double a) { res.y[v] = a; });
  // Deterministic block fold — block_sum reproduces it from the payload.
  res.checksum = deterministic_sum<double>(
      0, n, [&](std::size_t v) { return res.y[v]; }, eng.vertex_loop());
  return res;
}

SpmvResult spmv(const Engine& eng) {
  const VertexId n = eng.graph().num_vertices();
  std::vector<double> x(n, 1.0 / static_cast<double>(std::max<VertexId>(1, n)));
  return spmv(eng, x);
}

AlgorithmSpec spmv_spec() {
  AlgorithmSpec s;
  s.code = "SPMV";
  s.description = "sparse matrix-vector multiply, 1 iteration";
  s.edge_oriented = true;
  s.dense_frontier = true;
  s.params = ParamSchema{};
  s.run = [](const Engine& eng, const QueryParams&) {
    SpmvResult r = spmv(eng);
    return QueryPayload::vertex_doubles(std::move(r.y));
  };
  s.checksum = block_sum;  // == legacy SpmvResult::checksum (same fold)
  return s;
}

}  // namespace vebo::algo
