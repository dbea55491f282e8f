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

Summary PartitionProfile::vertex_summary() const {
  std::vector<double> xs(vertices.begin(), vertices.end());
  return summarize(xs);
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

std::vector<VertexId> active_destinations_per_partition(
    const Graph& g, const order::Partitioning& part,
    const VertexSubset& frontier) {
  DynamicBitset touched(g.num_vertices());
  frontier.for_each([&](VertexId u) {
    for (VertexId v : g.out_neighbors(u)) touched.set(v);
  });
  std::vector<VertexId> active(part.num_partitions(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (touched.get(v)) ++active[part.owner(v)];
  return active;
}

}  // namespace vebo::metrics
