// Breadth-First Search with direction reversal (Beamer et al.), a
// vertex-oriented algorithm in the paper's classification: per-iteration
// work is proportional to the frontier, and frontiers are medium/sparse.
#pragma once

#include "algorithms/query.hpp"

namespace vebo::algo {

/// Params: source (int, 0). Payload: per-vertex BFS levels
/// (kInvalidVertex = unreached). Checksum fold = reached-vertex count.
/// Each round's Iteration span carries its number (a) and frontier
/// size (b).
AlgorithmSpec bfs_spec();

}  // namespace vebo::algo
