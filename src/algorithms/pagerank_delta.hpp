// PageRank-Delta (Ligra's PRD): propagates only rank *changes* above a
// threshold, so the frontier shrinks as vertices converge. Edge-oriented
// like PR, but its frontier thins from complete to sparse (paper Table
// II). This is the algorithm behind the paper's motivating observation —
// low-degree vertices converge before high-degree ones, so partitions
// dominated by low-degree vertices fall idle early under edge-only
// balancing.
#pragma once

#include "algorithms/query.hpp"

namespace vebo::algo {

/// Params: max_iters (int in [0, INT_MAX], 10), damping (float, 0.85),
/// epsilon (float, 1e-2: a vertex stays active while |delta| > epsilon *
/// rank), top_k (int >= 0, 0). Payload: per-vertex rank vector or top-k
/// pairs. Checksum fold = serial rank sum. Each iteration's Iteration
/// span carries its number (a) and frontier size (b).
AlgorithmSpec pagerank_delta_spec();

}  // namespace vebo::algo
