// VEBO — the paper's Algorithm 2: Vertex- and Edge-Balanced Ordering.
//
// Three phases:
//  1. Place vertices with non-zero in-degree in order of decreasing degree,
//     each onto the partition with the fewest edges so far (min-heap over
//     partition edge weights -> O(n log P) total).
//  2. Place zero-in-degree vertices onto the partition with the fewest
//     vertices, correcting any vertex imbalance left by phase 1.
//  3. Renumber vertices so every partition is a contiguous id range.
//
// The `blocked` variant (Section III-D, last paragraph) keeps runs of
// same-degree vertices with consecutive original ids together to retain
// the input graph's spatial locality; the per-partition vertex and edge
// counts — and hence the balance guarantees — are identical to the exact
// variant.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/permute.hpp"
#include "order/partition.hpp"

namespace vebo::order {

struct VeboOptions {
  /// Locality-preserving block placement (the paper's default for all
  /// experiments).
  bool blocked = true;
};

struct VeboResult {
  Permutation perm;                       ///< new id = perm[old id]
  std::vector<VertexId> part_vertices;    ///< u[p]: vertices per partition
  std::vector<EdgeId> part_edges;         ///< w[p]: in-edges per partition
  Partitioning partitioning;              ///< contiguous chunks in new ids

  VertexId num_partitions() const {
    return static_cast<VertexId>(part_vertices.size());
  }
  /// Δ(n): max - min in-edges over partitions (Theorem 1 bounds this by 1
  /// for Zipf-distributed degrees).
  EdgeId edge_imbalance() const;
  /// δ(n): max - min vertices over partitions (Theorem 2 bounds this by 1).
  VertexId vertex_imbalance() const;
};

/// Runs VEBO from an explicit in-degree array.
VeboResult vebo_from_degrees(const std::vector<EdgeId>& in_degree,
                             VertexId P, const VeboOptions& opts = {});

/// Runs VEBO on a graph's in-degree sequence.
VeboResult vebo(const Graph& g, VertexId P, const VeboOptions& opts = {});

/// Convenience: VEBO-reordered copy of the graph.
Graph vebo_reorder(const Graph& g, VertexId P, const VeboOptions& opts = {});

/// Incremental refinement of a previous VEBO result after degree drift
/// (the streaming subsystem's rebalance step). The partition loads are
/// recounted from `in_degree`, so they match the graph whatever `dirty`
/// holds. Only the vertices listed in `dirty` — plus any new vertices
/// beyond `prev.perm.size()` — are re-placed, by phases 1-2 of Algorithm 2
/// run from the loads the other vertices leave; zero-degree vertices may
/// then move to repair vertex counts. Placement costs
/// O(|dirty| log(|dirty|·P)); the contiguous renumbering is O(n) and keeps
/// every non-dirty vertex in its previous relative order, so
/// partition-interior locality survives. Unlike the full run, degrees
/// within a partition are no longer strictly decreasing — balance bounds
/// are what the refinement maintains.
VeboResult vebo_refine(const std::vector<EdgeId>& in_degree,
                       const VeboResult& prev,
                       std::span<const VertexId> dirty);

}  // namespace vebo::order
