#include "graph/permute.hpp"

#include "support/error.hpp"

namespace vebo {

bool is_permutation(std::span<const VertexId> perm) {
  std::vector<bool> seen(perm.size(), false);
  for (VertexId p : perm) {
    if (p >= perm.size() || seen[p]) return false;
    seen[p] = true;
  }
  return true;
}

bool is_identity(std::span<const VertexId> perm) {
  for (std::size_t v = 0; v < perm.size(); ++v)
    if (perm[v] != v) return false;
  return true;
}

Permutation invert(std::span<const VertexId> perm) {
  Permutation inv(perm.size(), kInvalidVertex);
  for (std::size_t v = 0; v < perm.size(); ++v) {
    VEBO_CHECK(perm[v] < perm.size(), "invert: value out of range");
    VEBO_CHECK(inv[perm[v]] == kInvalidVertex, "invert: not a bijection");
    inv[perm[v]] = static_cast<VertexId>(v);
  }
  return inv;
}

Permutation compose(std::span<const VertexId> outer,
                    std::span<const VertexId> inner) {
  VEBO_CHECK(outer.size() == inner.size(), "compose: size mismatch");
  Permutation out(inner.size());
  for (std::size_t v = 0; v < inner.size(); ++v) out[v] = outer[inner[v]];
  return out;
}

Permutation identity_permutation(VertexId n) {
  Permutation p(n);
  for (VertexId v = 0; v < n; ++v) p[v] = v;
  return p;
}

Graph permute(const Graph& g, std::span<const VertexId> perm) {
  VEBO_CHECK(perm.size() == g.num_vertices(),
             "permute: permutation size != vertex count");
  return permute_rows(
      perm, g.directed(), [&](VertexId v) { return g.in_degree(v); },
      [&](VertexId u, auto&& emit) {
        for (VertexId w : g.out_neighbors(u)) emit(w);
      });
}

}  // namespace vebo
