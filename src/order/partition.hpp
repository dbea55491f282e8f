// Algorithm 1 of the paper: locality-preserving edge-balanced partitioning
// of the destination vertices. Each partition is a contiguous chunk of
// vertex ids owning all in-edges of its vertices. This is the partitioner
// used by Polymer/GraphGrind-style systems; VEBO reorders vertices so that
// this partitioner produces optimally balanced partitions.
#pragma once

#include <algorithm>
#include <ranges>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/permute.hpp"
#include "support/error.hpp"

namespace vebo::order {

/// A partitioning of the destination vertex set into contiguous chunks.
struct Partitioning {
  /// boundaries.size() == P+1; partition p owns destination vertices
  /// [boundaries[p], boundaries[p+1]).
  std::vector<VertexId> boundaries;

  VertexId num_partitions() const {
    return boundaries.empty() ? 0
                              : static_cast<VertexId>(boundaries.size() - 1);
  }
  VertexId begin(VertexId p) const { return boundaries[p]; }
  VertexId end(VertexId p) const { return boundaries[p + 1]; }
  VertexId vertices_in(VertexId p) const { return end(p) - begin(p); }

  /// Partition that owns destination v (binary search).
  VertexId owner(VertexId v) const;

  /// True when every destination in [0, n) has exactly one owner: the
  /// boundaries start at 0, never decrease and end at n.
  bool covers(VertexId n) const;
};

/// Algorithm 1: walk vertices in id order, close the current partition
/// once it has accumulated >= |E|/P in-edges.
Partitioning partition_by_destination(const Graph& g, VertexId P);

/// Same but from an explicit in-degree array (used before the graph is
/// materialized).
Partitioning partition_by_degrees(const std::vector<EdgeId>& in_degree,
                                  VertexId P);

/// Builds a partitioning from explicit per-partition vertex counts (used
/// by VEBO, whose phase 3 determines the chunk sizes directly).
Partitioning partition_from_counts(const std::vector<VertexId>& counts);

/// Phase 3 of Algorithm 2: partition p's vertices (assign[v] == p) take
/// the ids of chunk p in the order `visit` hands them over. `visit(place)`
/// must call place(v) once for every vertex; every chunk must fill exactly.
template <typename Visit>
Permutation number_by_partition(const Partitioning& part,
                                std::span<const VertexId> assign,
                                Visit&& visit) {
  std::vector<VertexId> cursor(part.boundaries.begin(),
                               part.boundaries.end() - 1);
  Permutation perm(assign.size(), kInvalidVertex);
  visit([&](VertexId v) { perm[v] = cursor[assign[v]]++; });
  for (VertexId p = 0; p < part.num_partitions(); ++p)
    VEBO_ASSERT(cursor[p] == part.end(p));
  return perm;
}

/// Δ or δ of per-partition loads: max - min, 0 when there are no
/// partitions.
template <std::ranges::contiguous_range Loads>
std::ranges::range_value_t<Loads> imbalance(const Loads& loads) {
  if (std::ranges::empty(loads)) return 0;
  const auto [lo, hi] = std::ranges::minmax_element(loads);
  return *hi - *lo;
}

}  // namespace vebo::order
