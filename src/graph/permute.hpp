// Applying vertex permutations (reorderings) to graphs. Every ordering
// algorithm in src/order produces a permutation consumed by these
// functions.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace vebo {

/// A vertex permutation: new_id = perm[old_id].
using Permutation = std::vector<VertexId>;

/// True iff `perm` is a bijection on 0..n-1.
bool is_permutation(std::span<const VertexId> perm);

/// True iff perm[v] == v for all v (no-op reordering).
bool is_identity(std::span<const VertexId> perm);

/// Inverse permutation: inv[perm[v]] = v.
Permutation invert(std::span<const VertexId> perm);

/// Composition: result[v] = outer[inner[v]] (apply inner first).
Permutation compose(std::span<const VertexId> outer,
                    std::span<const VertexId> inner);

/// Identity permutation of size n.
Permutation identity_permutation(VertexId n);

/// Relabels the graph: (u,v) -> (perm[u], perm[v]), CSR + CSC.
Graph permute(const Graph& g, std::span<const VertexId> perm);

/// The relabelling core behind permute() and DeltaGraph::snapshot(perm),
/// for a graph given row by row: `for_each_out(u, emit)` calls emit(w)
/// for every out-neighbor w of old vertex u, and `in_degree(v)` is v's
/// in-degree. Old vertices are visited in ascending new id and each
/// out-row is scattered once into the relabelled CSC, whose rows thereby
/// come out sorted; Csr::transpose then gives the relabelled CSR. No
/// comparison sort runs, and a wrong `in_degree` throws (Csr::scatter).
template <typename InDegree, typename ForEachOut>
Graph permute_rows(std::span<const VertexId> perm, bool directed,
                   InDegree&& in_degree, ForEachOut&& for_each_out) {
  const Permutation inv = invert(perm);
  const auto n = static_cast<VertexId>(perm.size());
  std::vector<EdgeId> sizes(n);
  for (VertexId v = 0; v < n; ++v) sizes[perm[v]] = in_degree(v);
  Csr in = Csr::scatter(sizes, [&](auto&& put) {
    for (VertexId r = 0; r < n; ++r)
      for_each_out(inv[r], [&](VertexId w) { put(perm[w], r); });
  });
  Csr out = in.transpose();
  return Graph::from_parts(std::move(out), std::move(in), directed);
}

}  // namespace vebo
