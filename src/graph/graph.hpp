// The Graph type: dual CSR/CSC adjacency, which the frontier-based
// framework traverses (push uses out-edges, pull uses in-edges). The two
// are all a Graph stores; its edges as (src, dst) pairs are a walk of the
// out-CSR rows (for_each_edge).
#pragma once

#include <cstddef>
#include <iterator>
#include <ranges>
#include <span>
#include <string>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/types.hpp"

namespace vebo {

class Graph {
 public:
  Graph() = default;

  /// Builds CSR (out) and CSC (in) from an edge list (duplicates and
  /// self loops kept): the edges are bucketed by destination, then
  /// transposed twice with Csr::transpose, so no comparison sort runs.
  static Graph from_edges(EdgeList el);

  /// Builds a Graph from an out-CSR and the matching in-CSC, both with
  /// sorted rows, and keeps both as given. from_edges, permute and
  /// DeltaGraph::snapshot all finish through this. Checks cheap
  /// structural consistency (vertex and edge counts); row-content
  /// agreement is the caller's contract.
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

  class CooView;
  /// The edges as a read-only view of the out-CSR rows (see CooView),
  /// kept for perfbench, which makes its workload inputs from it.
  /// Nothing in src/, bench/ or tests/ reads it (vebo_lint's coo-readers
  /// rule): they walk for_each_edge.
  CooView coo() const;

  /// Calls f(src, dst) for every edge in (src, dst) order: a walk of the
  /// out-CSR rows.
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
  Csr out_;  // rows = sources
  Csr in_;   // rows = destinations (CSC)
};

/// Forward iterator over an out-CSR as (src, dst) pairs, row by row: edge
/// index e_ in row row_. Graph::CooView's iterator.
class CsrEdgeIterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = Edge;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = Edge;  // built on read: the CSR stores no pairs

  CsrEdgeIterator() = default;
  /// Edge index e of `out` (e == out.num_edges() is the end).
  CsrEdgeIterator(const Csr& out, EdgeId e)
      : offsets_(out.offsets()), neighbors_(out.neighbor_array().data()),
        e_(e) {
    skip_finished_rows();
  }

  Edge operator*() const {
    return {static_cast<VertexId>(row_), neighbors_[e_]};
  }
  CsrEdgeIterator& operator++() {
    ++e_;
    skip_finished_rows();
    return *this;
  }
  CsrEdgeIterator operator++(int) {
    CsrEdgeIterator old = *this;
    ++*this;
    return old;
  }
  /// Iterators over one CSR are equal at the same edge index.
  friend bool operator==(const CsrEdgeIterator& a, const CsrEdgeIterator& b) {
    return a.e_ == b.e_;
  }

 private:
  // Advances row_ to the row holding edge e_ (to n once e_ == m).
  void skip_finished_rows() {
    while (row_ + 1 < offsets_.size() && offsets_[row_ + 1] <= e_) ++row_;
  }

  std::span<const EdgeId> offsets_;
  const VertexId* neighbors_ = nullptr;
  EdgeId e_ = 0;
  std::size_t row_ = 0;
};

/// The out-CSR as (src, dst) pairs in for_each_edge order, for callers
/// that read an edge list. It stores nothing and builds nothing: its
/// iterators walk the graph's rows, so they stay valid while the graph
/// lives, and begin() of one coo() call with end() of another bounds the
/// whole sequence. Converting it to an EdgeList copies the edges.
class Graph::CooView {
 public:
  explicit CooView(const Graph& g) : g_(&g) {}

  std::ranges::subrange<CsrEdgeIterator> edges() const {
    return {CsrEdgeIterator(g_->out_, 0), CsrEdgeIterator(g_->out_, g_->m_)};
  }

  /// A copy of the edges, with the graph's vertex count and directedness.
  operator EdgeList() const;

 private:
  const Graph* g_;
};

inline Graph::CooView Graph::coo() const { return CooView(*this); }

}  // namespace vebo
