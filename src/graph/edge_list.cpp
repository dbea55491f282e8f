#include "graph/edge_list.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace vebo {

namespace {
/// kInvalidVertex is a sentinel, and n = id + 1 must not wrap to 0.
void check_vertex_id(VertexId id) {
  VEBO_CHECK(id < kInvalidVertex,
             "vertex id 4294967295 is the reserved invalid-vertex sentinel");
}
}  // namespace

EdgeList::EdgeList(VertexId num_vertices, std::vector<Edge> edges,
                   bool directed)
    : n_(num_vertices), edges_(std::move(edges)), directed_(directed) {
  validate(false);
}

void EdgeList::add(VertexId src, VertexId dst) {
  check_vertex_id(std::max(src, dst));
  edges_.push_back({src, dst});
  if (src >= n_) n_ = src + 1;
  if (dst >= n_) n_ = dst + 1;
}

void EdgeList::validate(bool grow) {
  for (const Edge& e : edges_) {
    if (e.src >= n_ || e.dst >= n_) {
      VEBO_CHECK(grow, "edge endpoint out of range");
      check_vertex_id(std::max(e.src, e.dst));
      n_ = std::max(n_, std::max(e.src, e.dst) + 1);
    }
  }
}

void EdgeList::remove_self_loops() {
  std::erase_if(edges_, [](const Edge& e) { return e.src == e.dst; });
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

void EdgeList::sort_by_source() {
  std::sort(edges_.begin(), edges_.end());
}

void EdgeList::sort_by_destination() {
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    if (a.dst != b.dst) return a.dst < b.dst;
    return a.src < b.src;
  });
}

}  // namespace vebo
