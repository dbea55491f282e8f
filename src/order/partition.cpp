#include "order/partition.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace vebo::order {

VertexId Partitioning::owner(VertexId v) const {
  VEBO_ASSERT(!boundaries.empty() && v < boundaries.back());
  const auto it =
      std::upper_bound(boundaries.begin(), boundaries.end(), v);
  return static_cast<VertexId>(it - boundaries.begin() - 1);
}

bool Partitioning::covers(VertexId n) const {
  return !boundaries.empty() && boundaries.front() == 0 &&
         boundaries.back() == n &&
         std::is_sorted(boundaries.begin(), boundaries.end());
}

Partitioning partition_by_degrees(const std::vector<EdgeId>& in_degree,
                                  VertexId P) {
  VEBO_CHECK(P >= 1, "partition: P must be >= 1");
  const VertexId n = static_cast<VertexId>(in_degree.size());
  EdgeId total = 0;
  for (EdgeId d : in_degree) total += d;
  // Average edges per partition; Algorithm 1 line 1. Integer division
  // mirrors the reference implementations.
  const EdgeId avg = std::max<EdgeId>(1, total / P);

  Partitioning part;
  part.boundaries.assign(static_cast<std::size_t>(P) + 1, n);
  part.boundaries[0] = 0;
  VertexId p = 0;
  EdgeId in_part = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (in_part >= avg && p + 1 < P) {
      ++p;
      part.boundaries[p] = v;
      in_part = 0;
    }
    in_part += in_degree[v];
  }
  // Remaining partitions (if the walk exhausted vertices early) are empty
  // chunks pinned at n.
  for (VertexId q = p + 1; q <= P; ++q)
    part.boundaries[q] = std::max(part.boundaries[q], part.boundaries[p]);
  part.boundaries[P] = n;
  // Monotonicity repair for empty tail partitions.
  for (VertexId q = 1; q <= P; ++q)
    part.boundaries[q] = std::max(part.boundaries[q], part.boundaries[q - 1]);
  return part;
}

Partitioning partition_by_destination(const Graph& g, VertexId P) {
  std::vector<EdgeId> deg(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) deg[v] = g.in_degree(v);
  return partition_by_degrees(deg, P);
}

Partitioning partition_from_counts(const std::vector<VertexId>& counts) {
  Partitioning part;
  part.boundaries.resize(counts.size() + 1);
  part.boundaries[0] = 0;
  for (std::size_t p = 0; p < counts.size(); ++p)
    part.boundaries[p + 1] = part.boundaries[p] + counts[p];
  return part;
}

}  // namespace vebo::order
