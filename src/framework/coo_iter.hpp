// Partitioned COO: GraphGrind's dense-frontier edge layout, kept for the
// benches that measure it (Table VI's build cost, Figure 6's per-
// partition sweep). No engine builds or traverses it; every model's dense
// gather is edge_fold over the CSC.
//
// Edges are grouped by the partition owning their *destination* (data-race
// freedom: only the owning partition writes a destination), and within a
// partition ordered by CSR (source-major), CSC (destination-major) or the
// Hilbert space-filling curve — the axis studied in Section V-G / Fig. 6.
//
// The build reads the graph's CSR and CSC, never its COO. Partition p's
// size is the CSC offset difference at its boundaries, so no count pass
// runs. Each order is then built serially on the calling thread:
//  * Csr: one pass over the out-CSR rows in source order scatters each
//    edge to its partition's cursor (owner from an O(n) table); every
//    put is bounds-checked and every partition must end exactly full.
//  * Csc: the CSC edge array copied as it is: a partition is a contiguous
//    run of CSC rows, each listing its sources ascending.
//  * Hilbert: the Csc copy, then each partition sorted by Hilbert index
//    (ties by edge) through order::sort_edges_hilbert, which computes
//    each edge's index once.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/graph.hpp"
#include "order/partition.hpp"

namespace vebo {

enum class EdgeOrder { Csr, Csc, Hilbert };

std::string to_string(EdgeOrder o);

struct PartitionedCoo {
  std::vector<Edge> edges;            ///< grouped by destination partition
  std::vector<std::size_t> offsets;   ///< P+1 group boundaries

  std::size_t num_partitions() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::span<const Edge> partition(std::size_t p) const {
    return {edges.data() + offsets[p], edges.data() + offsets[p + 1]};
  }
};

/// Builds the partitioned COO for a graph under a destination partitioning.
/// Throws unless the boundaries start at 0, never decrease and end at n.
PartitionedCoo build_partitioned_coo(const Graph& g,
                                     const order::Partitioning& part,
                                     EdgeOrder order);

}  // namespace vebo
