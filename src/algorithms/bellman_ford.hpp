// Single-source shortest paths by frontier-based Bellman–Ford (Ligra's
// BF). Vertex-oriented; frontier density varies from dense to sparse over
// the run. Edge weights are the deterministic weights of spmv.hpp. On an
// engine whose pool has one thread there is nothing to balance, and a
// serial pass over a ring of distance buckets (Dial's algorithm) settles
// each reached vertex once instead; the distances are the same, bit for
// bit.
#pragma once

#include <limits>

#include "algorithms/query.hpp"

namespace vebo::algo {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Params: source (int, 0). Payload: per-vertex shortest-path distances
/// (kUnreachable = +inf); aux = edge_map rounds, or on a one-thread
/// engine the distance buckets settled (one per distinct finite
/// distance). Checksum fold = reached (finite-distance) count.
AlgorithmSpec bellman_ford_spec();

}  // namespace vebo::algo
