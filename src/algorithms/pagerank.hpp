// PageRank by the power method (10 iterations by default, as in the
// paper's Table II). The canonical edge-oriented, dense-frontier
// algorithm: every iteration touches every edge, which is why per-
// partition edge/destination balance translates directly into runtime.
#pragma once

#include <vector>

#include "algorithms/query.hpp"
#include "framework/engine.hpp"

namespace vebo::algo {

struct PageRankOptions {
  int iterations = 10;
  double damping = 0.85;
};

struct PageRankResult {
  std::vector<double> rank;
  int iterations = 0;
  double total_mass = 0.0;  ///< sum of ranks (diagnostic)
};

PageRankResult pagerank(const Engine& eng, const PageRankOptions& opts = {});

/// One PR iteration's CSC pull, timing each partition's sequential
/// processing (the measurement behind Figures 1 and 4). Returns seconds
/// per partition.
std::vector<double> pagerank_partition_times(const Engine& eng,
                                             int repeats = 3);

/// Typed entry point. Params: iterations (int, 10), damping (float,
/// 0.85), top_k (int, 0). Payload: full per-vertex rank vector, or the
/// top_k highest-ranked (vertex, score) pairs when top_k > 0; aux =
/// total mass. Checksum fold = block_sum of the ranks, the same
/// deterministic block fold as total_mass.
AlgorithmSpec pagerank_spec();

}  // namespace vebo::algo
