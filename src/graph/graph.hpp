// The Graph type: dual CSR/CSC adjacency, which the frontier-based
// framework traverses (push uses out-edges, pull uses in-edges), plus the
// COO sorted by source, an EdgeList copy of the out-CSR for callers that
// want one. Library code walks the out-CSR (for_each_edge) instead.
#pragma once

#include <span>
#include <string>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/types.hpp"

namespace vebo {

class Graph {
 public:
  Graph() = default;

  /// Builds CSR (out), CSC (in) and COO from an edge list (duplicates
  /// and self loops kept): the edges are bucketed by destination, then
  /// transposed twice with Csr::transpose, so no comparison sort runs.
  static Graph from_edges(EdgeList el);

  /// Builds a Graph from an out-CSR and the matching in-CSC, both with
  /// sorted rows; the COO (sorted by source) is derived from the out-CSR
  /// here, its one home. from_edges, permute and DeltaGraph::snapshot all
  /// finish through this. Checks cheap structural consistency (vertex
  /// and edge counts); row-content agreement is the caller's contract.
  static Graph from_parts(Csr out, Csr in, bool directed);

  VertexId num_vertices() const { return n_; }
  EdgeId num_edges() const { return m_; }
  bool directed() const { return directed_; }

  EdgeId out_degree(VertexId v) const { return out_.degree(v); }
  EdgeId in_degree(VertexId v) const { return in_.degree(v); }

  /// Out-neighbors of v (push direction).
  std::span<const VertexId> out_neighbors(VertexId v) const {
    return out_.neighbors(v);
  }
  /// In-neighbors of v (pull direction; the paper's "sources of v").
  std::span<const VertexId> in_neighbors(VertexId v) const {
    return in_.neighbors(v);
  }

  const Csr& out_csr() const { return out_; }
  const Csr& in_csr() const { return in_; }
  const EdgeList& coo() const { return coo_; }

  /// Calls f(src, dst) for every edge in (src, dst) order, the order of
  /// coo(): a walk of the out-CSR rows.
  template <typename F>
  void for_each_edge(F&& f) const {
    for (VertexId u = 0; u < n_; ++u)
      for (VertexId v : out_neighbors(u)) f(u, v);
  }

  /// Maximum in-degree; N in the paper is max_in_degree()+1.
  EdgeId max_in_degree() const;
  EdgeId max_out_degree() const;

  /// Vertices with zero in-degree / out-degree (paper's Table I columns).
  VertexId count_zero_in_degree() const;
  VertexId count_zero_out_degree() const;

  /// One-line description for logs and benches.
  std::string describe(const std::string& name = "") const;

 private:
  VertexId n_ = 0;
  EdgeId m_ = 0;
  bool directed_ = true;
  Csr out_;       // rows = sources
  Csr in_;        // rows = destinations (CSC)
  EdgeList coo_;  // sorted by source
};

}  // namespace vebo
