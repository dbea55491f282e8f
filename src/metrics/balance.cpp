#include "metrics/balance.hpp"

#include <algorithm>

namespace vebo::metrics {

EdgeId PartitionProfile::edge_imbalance() const {
  if (edges.empty()) return 0;
  const auto [lo, hi] = std::minmax_element(edges.begin(), edges.end());
  return *hi - *lo;
}

VertexId PartitionProfile::vertex_imbalance() const {
  if (vertices.empty()) return 0;
  const auto [lo, hi] = std::minmax_element(vertices.begin(), vertices.end());
  return *hi - *lo;
}

PartitionProfile profile_partitions(const Graph& g,
                                    const order::Partitioning& part) {
  PartitionProfile p;
  p.edges = order::edges_per_partition(g, part);
  p.dests = order::destinations_per_partition(g, part);
  p.sources = order::sources_per_partition(g, part);
  const VertexId P = part.num_partitions();
  p.vertices.resize(P);
  for (VertexId q = 0; q < P; ++q) p.vertices[q] = part.vertices_in(q);
  return p;
}

std::vector<EdgeId> active_edges_per_partition(
    const Graph& g, const order::Partitioning& part,
    const VertexSubset& frontier) {
  std::vector<EdgeId> active(part.num_partitions(), 0);
  frontier.for_each([&](VertexId u) {
    for (VertexId v : g.out_neighbors(u)) ++active[part.owner(v)];
  });
  return active;
}

}  // namespace vebo::metrics
