// Connected components by label propagation (the paper's CC), an
// edge-oriented algorithm with dense frontiers in the paper's Table II.
// Labels propagate across both edge directions so directed inputs yield
// weakly connected components, matching the systems' use of symmetrized
// inputs.
#pragma once

#include "algorithms/query.hpp"

namespace vebo::algo {

/// No params. Payload: per-vertex component labels (id-valued: label =
/// the component's minimum member id, translated with the payload).
/// Checksum fold = component count. Each round's Iteration span carries
/// its number (a) and frontier size (b).
AlgorithmSpec cc_spec();

}  // namespace vebo::algo
