// Gorder (Wei et al., SIGMOD'16): greedy window-based vertex ordering that
// maximizes a locality score — the temporal-locality baseline of the
// paper's evaluation.
//
// The greedy repeatedly appends the unplaced vertex with the highest score
// against a sliding window of the last `window` placed vertices, where
// score(v) counts (a) direct edges u->v from window vertices u and
// (b) shared in-neighbors ("sibling" relations) with window vertices.
// Priorities are maintained with a lazy max-heap; each window entry/exit
// applies +/-1 deltas along out-edges and 2-hop sibling paths, giving the
// O(sum_deg_out^2) bound quoted in the paper.
#pragma once

#include "graph/graph.hpp"
#include "graph/permute.hpp"

namespace vebo::order {

struct GorderOptions {
  VertexId window = 5;  ///< the paper/implementation default w=5
  /// In-neighbor hubs with degree above this are skipped during sibling
  /// expansion to keep the quadratic term bounded on skewed graphs (the
  /// reference implementation applies the same optimization).
  EdgeId hub_cutoff = 512;
};

/// Returns the Gorder permutation: new id = perm[old id].
Permutation gorder(const Graph& g, const GorderOptions& opts = {});

}  // namespace vebo::order
