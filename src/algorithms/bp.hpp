// Loopy belief propagation (10 iterations), the paper's BP workload: a
// synchronous message-passing kernel whose per-iteration work is
// proportional to the edge count, with per-edge state — edge-oriented
// with a dense frontier (paper Table II). Messages travel along edge
// direction; vertex beliefs combine a deterministic prior with incoming
// messages through a saturating (tanh) coupling — the standard
// binary-state BP update in log-odds form without reverse-message
// division (exact on trees oriented away from the roots).
#pragma once

#include "algorithms/query.hpp"

namespace vebo::algo {

/// Params: iterations (int in [0, INT_MAX], 10), coupling (float, 0.5:
/// edge potential strength in log-odds space). Payload: per-vertex
/// log-odds beliefs. Checksum fold = block_sum of the beliefs.
AlgorithmSpec bp_spec();

}  // namespace vebo::algo
