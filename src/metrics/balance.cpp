#include "metrics/balance.hpp"

#include "support/bitset.hpp"

namespace vebo::metrics {

EdgeId PartitionProfile::edge_imbalance() const {
  return order::imbalance(edges);
}

VertexId PartitionProfile::vertex_imbalance() const {
  return order::imbalance(vertices);
}

PartitionProfile profile_partitions(const Graph& g,
                                    const order::Partitioning& part) {
  const VertexId P = part.num_partitions();
  PartitionProfile prof;
  prof.edges.assign(P, 0);
  prof.vertices.assign(P, 0);
  prof.dests.assign(P, 0);
  prof.sources.assign(P, 0);
  DynamicBitset seen(g.num_vertices());
  for (VertexId p = 0; p < P; ++p) {
    prof.vertices[p] = part.vertices_in(p);
    seen.reset();
    for (VertexId v = part.begin(p); v < part.end(p); ++v) {
      prof.edges[p] += g.in_degree(v);
      if (g.in_degree(v) > 0) ++prof.dests[p];
      for (VertexId u : g.in_neighbors(v))
        if (!seen.get(u)) {
          seen.set(u);
          ++prof.sources[p];
        }
    }
  }
  return prof;
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
