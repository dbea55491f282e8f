// Load-balance metrics: the quantities the paper reports in Table I
// (Δ(n), δ(n)), Figure 1 (per-partition edges / destinations / sources)
// and Table IV (active-edge distribution over partitions).
#pragma once

#include <vector>

#include "framework/vertex_subset.hpp"
#include "graph/graph.hpp"
#include "order/partition.hpp"

namespace vebo::metrics {

/// Per-partition structural counts under a destination partitioning.
struct PartitionProfile {
  std::vector<EdgeId> edges;         ///< in-edges per partition
  std::vector<VertexId> vertices;    ///< vertices per partition
  std::vector<VertexId> dests;       ///< destinations with >=1 in-edge
  std::vector<VertexId> sources;     ///< distinct sources per partition

  /// Δ: max-min of edges.
  EdgeId edge_imbalance() const;
  /// δ: max-min of vertices.
  VertexId vertex_imbalance() const;
};

PartitionProfile profile_partitions(const Graph& g,
                                    const order::Partitioning& part);

/// Distribution of *active* edges over partitions for a given frontier:
/// an edge (u, v) is active when u is in the frontier; it is charged to
/// the partition owning v (Table IV).
std::vector<EdgeId> active_edges_per_partition(
    const Graph& g, const order::Partitioning& part,
    const VertexSubset& frontier);

}  // namespace vebo::metrics
