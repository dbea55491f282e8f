// Sequential reference implementations used by the test suite to validate
// the parallel framework algorithms. Deliberately simple and obviously
// correct; no shared state, no frontier machinery.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace vebo::algo::ref {

/// BFS levels from `source`; kInvalidVertex where unreachable.
std::vector<VertexId> bfs_levels(const Graph& g, VertexId source);

/// Weakly connected component labels (min vertex id per component),
/// computed with union-find.
std::vector<VertexId> wcc_labels(const Graph& g);

/// PageRank by `iterations` power-method steps (same damping convention
/// as the PR spec: dangling vertices contribute nothing).
std::vector<double> pagerank(const Graph& g, int iterations,
                             double damping = 0.85);

/// Dijkstra distances with the deterministic edge weights of spmv.hpp.
std::vector<double> dijkstra(const Graph& g, VertexId source);

/// Brandes single-source dependency scores.
std::vector<double> brandes_dependency(const Graph& g, VertexId source);

/// y = A^T x with the deterministic edge weights.
std::vector<double> spmv(const Graph& g, const std::vector<double>& x);

}  // namespace vebo::algo::ref
