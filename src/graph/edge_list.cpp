#include "graph/edge_list.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace vebo {

EdgeList::EdgeList(VertexId num_vertices, std::vector<Edge> edges,
                   bool directed)
    : n_(num_vertices), edges_(std::move(edges)), directed_(directed) {
  for (const Edge& e : edges_)
    VEBO_CHECK(e.src < n_ && e.dst < n_, "edge endpoint out of range");
}

void EdgeList::remove_duplicates() {
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
}

void EdgeList::symmetrize() {
  const std::size_t orig = edges_.size();
  edges_.reserve(orig * 2);
  for (std::size_t i = 0; i < orig; ++i)
    edges_.push_back({edges_[i].dst, edges_[i].src});
  remove_duplicates();
  directed_ = false;
}

}  // namespace vebo
