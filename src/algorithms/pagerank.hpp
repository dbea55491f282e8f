// PageRank by the power method (10 iterations by default, as in the
// paper's Table II). The canonical edge-oriented, dense-frontier
// algorithm: every iteration touches every edge, which is why per-
// partition edge/destination balance translates directly into runtime.
#pragma once

#include <vector>

#include "algorithms/query.hpp"

namespace vebo::algo {

/// One PR iteration's CSC pull, timing each partition's sequential
/// processing (the measurement behind Figures 1 and 4). Returns seconds
/// per partition.
std::vector<double> pagerank_partition_times(const Engine& eng,
                                             int repeats = 3);

/// Params: iterations (int in [0, INT_MAX], 10), damping (float, 0.85),
/// top_k (int >= 0, 0). Payload: full per-vertex rank vector, or the
/// top_k highest-ranked (vertex, score) pairs when top_k > 0. Checksum
/// fold = block_sum of the payload (the total mass when top_k = 0).
AlgorithmSpec pagerank_spec();

}  // namespace vebo::algo
