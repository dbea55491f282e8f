#include "graph/graph.hpp"

#include <sstream>

#include "parallel/parallel_for.hpp"
#include "support/error.hpp"

namespace vebo {

Graph Graph::from_edges(EdgeList el) {
  const VertexId n = el.num_vertices();
  const bool directed = el.directed();
  Csr out;
  {
    // Rows = destinations, sources in input order; transposing scans the
    // destinations in order, so the out-CSR rows come out sorted.
    std::vector<EdgeId> in_deg(n, 0);
    for (const Edge& e : el.edges()) ++in_deg[e.dst];
    const Csr by_dst = Csr::scatter(in_deg, [&](auto&& put) {
      for (const Edge& e : el.edges()) put(e.dst, e.src);
    });
    el = EdgeList();  // release the input early: it is the largest array
    out = by_dst.transpose();
  }
  Csr in = out.transpose();
  return from_parts(std::move(out), std::move(in), directed);
}

Graph Graph::from_parts(Csr out, Csr in, bool directed) {
  VEBO_CHECK(out.num_vertices() == in.num_vertices(),
             "from_parts: CSR/CSC vertex counts disagree");
  VEBO_CHECK(out.num_edges() == in.num_edges(),
             "from_parts: CSR/CSC edge counts disagree");
  const VertexId n = out.num_vertices();
  std::vector<Edge> edges(out.num_edges());
  const auto offsets = out.offsets();
  parallel_for(0, n, [&](std::size_t v) {
    EdgeId e = offsets[v];
    for (VertexId w : out.neighbors(static_cast<VertexId>(v)))
      edges[e++] = {static_cast<VertexId>(v), w};
  });
  Graph g;
  g.n_ = n;
  g.m_ = out.num_edges();
  g.directed_ = directed;
  g.out_ = std::move(out);
  g.in_ = std::move(in);
  g.coo_ = EdgeList(n, std::move(edges), directed);
  return g;
}

EdgeId Graph::max_in_degree() const {
  EdgeId best = 0;
  for (VertexId v = 0; v < n_; ++v) best = std::max(best, in_degree(v));
  return best;
}

EdgeId Graph::max_out_degree() const {
  EdgeId best = 0;
  for (VertexId v = 0; v < n_; ++v) best = std::max(best, out_degree(v));
  return best;
}

VertexId Graph::count_zero_in_degree() const {
  VertexId c = 0;
  for (VertexId v = 0; v < n_; ++v)
    if (in_degree(v) == 0) ++c;
  return c;
}

VertexId Graph::count_zero_out_degree() const {
  VertexId c = 0;
  for (VertexId v = 0; v < n_; ++v)
    if (out_degree(v) == 0) ++c;
  return c;
}

std::string Graph::describe(const std::string& name) const {
  std::ostringstream os;
  if (!name.empty()) os << name << ": ";
  os << "|V|=" << n_ << " |E|=" << m_
     << (directed_ ? " directed" : " undirected")
     << " max_in_deg=" << max_in_degree();
  return os.str();
}

}  // namespace vebo
