// Single-source shortest paths by frontier-based Bellman–Ford (Ligra's
// BF). Vertex-oriented; frontier density varies from dense to sparse over
// the run. Edge weights are the deterministic weights of spmv.hpp. On an
// engine whose pool has one thread there is nothing to balance, and on a
// graph of up to 2^27 vertices a serial pass over a ring of distance
// buckets (Dial's algorithm) settles each reached vertex once instead;
// the distances are the same, bit for bit.
#pragma once

#include <limits>

#include "algorithms/query.hpp"

namespace vebo::algo {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Params: source (int, 0). Payload: per-vertex shortest-path distances
/// (kUnreachable = +inf). Checksum fold = reached (finite-distance)
/// count. Each edge_map round's Iteration span carries its number (a)
/// and frontier size (b); where the pass runs, its one span
/// carries the distance buckets settled (a, one per distinct finite
/// distance) and the vertices settled (b).
AlgorithmSpec bellman_ford_spec();

}  // namespace vebo::algo
