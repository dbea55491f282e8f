// Betweenness centrality from a single source (Brandes), structured as in
// Ligra's BC: a forward BFS accumulating shortest-path counts followed by
// a backward dependency sweep over the BFS levels. Vertex-oriented with
// medium/sparse frontiers (paper Table II).
#pragma once

#include "algorithms/query.hpp"

namespace vebo::algo {

/// Params: source (int, 0), top_k (int >= 0, 0). Payload: per-vertex
/// Brandes dependency scores, or the top_k most central (vertex, score)
/// pairs. Checksum fold = serial dependency sum. Each forward level's
/// Iteration span carries its depth (a) and frontier size (b).
AlgorithmSpec bc_spec();

}  // namespace vebo::algo
