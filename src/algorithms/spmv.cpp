#include "algorithms/spmv.hpp"

#include <algorithm>

#include "framework/edgemap.hpp"

namespace vebo::algo {

namespace {

QueryPayload run_spmv(const Engine& eng, const QueryParams&) {
  const VertexId n = eng.graph().num_vertices();
  const double x = 1.0 / static_cast<double>(std::max<VertexId>(1, n));
  std::vector<double> y(n, 0.0);

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
      eng, [&](VertexId u, VertexId v) { return edge_weight(u, v) * x; },
      [&](VertexId v, double a) { y[v] = a; });
  return QueryPayload::vertex_doubles(std::move(y));
}

}  // namespace

AlgorithmSpec spmv_spec() {
  AlgorithmSpec s;
  s.code = "SPMV";
  s.run = run_spmv;
  s.checksum = block_sum;
  return s;
}

}  // namespace vebo::algo
