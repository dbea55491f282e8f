#include "order/hilbert.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace vebo::order {

// Classic bit-twiddling conversion (Wikipedia / Warren): iterate from the
// largest sub-square down, rotating the frame as dictated by the quadrant.
std::uint64_t hilbert_index(std::uint32_t x, std::uint32_t y, int k) {
  VEBO_ASSERT(k > 0 && k <= 32);
  std::uint64_t rx, ry, d = 0;
  for (std::uint64_t s = std::uint64_t{1} << (k - 1); s > 0; s >>= 1) {
    rx = (x & s) ? 1 : 0;
    ry = (y & s) ? 1 : 0;
    d += s * s * ((3 * rx) ^ ry);
    // Rotate.
    if (ry == 0) {
      if (rx == 1) {
        x = static_cast<std::uint32_t>(s - 1 - x);
        y = static_cast<std::uint32_t>(s - 1 - y);
      }
      std::swap(x, y);
    }
  }
  return d;
}

int hilbert_order_for(std::uint64_t n) {
  int k = 1;
  while ((std::uint64_t{1} << k) < n) ++k;
  return k;
}

void sort_edges_hilbert(std::span<Edge> edges, int k) {
  std::vector<std::pair<std::uint64_t, Edge>> keyed(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i)
    keyed[i] = {hilbert_index(edges[i].src, edges[i].dst, k), edges[i]};
  std::sort(keyed.begin(), keyed.end());
  for (std::size_t i = 0; i < edges.size(); ++i) edges[i] = keyed[i].second;
}

void sort_edges_hilbert(EdgeList& el) {
  sort_edges_hilbert(el.mutable_edges(), hilbert_order_for(el.num_vertices()));
}

}  // namespace vebo::order
