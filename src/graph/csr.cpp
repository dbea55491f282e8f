#include "graph/csr.hpp"

#include <algorithm>

namespace vebo {

Csr::Csr(std::vector<EdgeId> offsets, std::vector<VertexId> neighbors)
    : offsets_(std::move(offsets)), neighbors_(std::move(neighbors)) {
  VEBO_CHECK(!offsets_.empty(), "CSR offsets must have at least one entry");
  VEBO_CHECK(offsets_.back() == neighbors_.size(),
             "CSR offsets/neighbors size mismatch");
}

Csr Csr::transpose() const {
  const VertexId n = num_vertices();
  std::vector<EdgeId> sizes(n, 0);
  for (VertexId c : neighbors_) {
    VEBO_CHECK(c < n, "transpose: neighbor id out of range");
    ++sizes[c];
  }
  return scatter(sizes, [&](auto&& put) {
    for (VertexId r = 0; r < n; ++r)
      for (VertexId c : neighbors(r)) put(c, r);
  });
}

bool Csr::valid() const {
  if (offsets_.empty()) return false;
  if (offsets_.front() != 0) return false;
  const VertexId n = num_vertices();
  for (std::size_t i = 0; i + 1 < offsets_.size(); ++i)
    if (offsets_[i] > offsets_[i + 1]) return false;
  if (offsets_.back() != neighbors_.size()) return false;
  for (VertexId v = 0; v < n; ++v) {
    auto row = neighbors(v);
    if (!std::is_sorted(row.begin(), row.end())) return false;
    for (VertexId u : row)
      if (u >= n) return false;
  }
  return true;
}

}  // namespace vebo
