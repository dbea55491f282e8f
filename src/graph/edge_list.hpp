// COO (coordinate format) edge list: the canonical ingestion and
// interchange representation. Generators produce EdgeLists and CSR/CSC
// are built from them; the partitioned COO that Table VI and Figure 6
// measure (framework/coo_iter.hpp) groups these edges by destination
// partition.
#pragma once

#include <span>
#include <vector>

#include "graph/types.hpp"

namespace vebo {

class EdgeList {
 public:
  EdgeList() = default;
  /// Throws vebo::Error unless every endpoint is < num_vertices (so the
  /// kInvalidVertex sentinel is never an endpoint).
  EdgeList(VertexId num_vertices, std::vector<Edge> edges,
           bool directed = true);

  VertexId num_vertices() const { return n_; }
  EdgeId num_edges() const { return static_cast<EdgeId>(edges_.size()); }
  bool directed() const { return directed_; }

  std::span<const Edge> edges() const { return edges_; }
  std::span<Edge> mutable_edges() { return edges_; }

  /// Removes duplicate edges (sorts as a side effect).
  void remove_duplicates();

  /// Adds the reverse of every edge, then dedupes. Marks undirected.
  void symmetrize();

 private:
  VertexId n_ = 0;
  std::vector<Edge> edges_;
  bool directed_ = true;
};

}  // namespace vebo
