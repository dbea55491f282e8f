// Hilbert space-filling curve edge ordering (Section V-G of the paper).
//
// Treating an edge (src, dst) as a point in the adjacency matrix, sorting
// edges by their position along a Hilbert curve improves temporal locality
// of COO traversal. The paper compares this against CSR (source-major)
// edge order and finds CSR order superior once VEBO has equalized the
// degree mix per partition.
#pragma once

#include <cstdint>
#include <span>

#include "graph/edge_list.hpp"

namespace vebo::order {

/// Distance along the Hilbert curve of order 2^k covering [0,2^k)^2.
std::uint64_t hilbert_index(std::uint32_t x, std::uint32_t y, int k);

/// Smallest k such that 2^k covers ids [0, n).
int hilbert_order_for(std::uint64_t n);

/// Sorts `edges` by Hilbert index of (src, dst) on the curve of order
/// 2^k, ties by edge. Each index is computed once per edge and the
/// (index, edge) pairs are sorted: the one home of Hilbert edge order.
void sort_edges_hilbert(std::span<Edge> edges, int k);

/// Sorts edges in Hilbert order of (src, dst).
void sort_edges_hilbert(EdgeList& el);

}  // namespace vebo::order
