#include "framework/coo_iter.hpp"

#include <algorithm>

#include "order/hilbert.hpp"
#include "support/error.hpp"

namespace vebo {

std::string to_string(EdgeOrder o) {
  switch (o) {
    case EdgeOrder::Csr: return "CSR";
    case EdgeOrder::Csc: return "CSC";
    case EdgeOrder::Hilbert: return "Hilbert";
  }
  return "?";
}

namespace {

/// CSR order: one pass over the out-CSR rows in source order puts each
/// edge at its destination partition's cursor, so every partition keeps
/// the rows' (src, dst) order. The owner of each destination comes from
/// a table filled from the boundaries in O(n), not a search per edge.
void scatter_in_source_order(const Graph& g, const order::Partitioning& part,
                             PartitionedCoo& out) {
  const VertexId P = part.num_partitions();
  std::vector<VertexId> owner(g.num_vertices());
  for (VertexId p = 0; p < P; ++p)
    std::fill(owner.begin() + part.begin(p), owner.begin() + part.end(p), p);
  std::vector<std::size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  g.for_each_edge([&](VertexId u, VertexId v) {
    const VertexId p = owner[v];
    VEBO_CHECK(cursor[p] < out.offsets[p + 1],
               "partitioned COO: partition overflow");
    out.edges[cursor[p]++] = {u, v};
  });
  for (VertexId p = 0; p < P; ++p)
    VEBO_CHECK(cursor[p] == out.offsets[p + 1],
               "partitioned COO: partition size mismatch");
}

/// CSC order: a partition is a contiguous destination range and every
/// CSC row lists its sources ascending, so the CSC rows copied in order
/// are each partition in (dst, src) order already.
void copy_in_destination_order(const Graph& g, PartitionedCoo& out) {
  std::size_t e = 0;  // edges.size() is the CSC's edge count
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (VertexId u : g.in_neighbors(v)) out.edges[e++] = {u, v};
}

}  // namespace

PartitionedCoo build_partitioned_coo(const Graph& g,
                                     const order::Partitioning& part,
                                     EdgeOrder order) {
  const std::size_t P = part.num_partitions();
  VEBO_CHECK(P >= 1, "partitioned COO requires at least one partition");
  VEBO_CHECK(part.covers(g.num_vertices()),
             "partitioned COO: partitioning does not cover the vertex set");

  // Partition p owns the in-edges of destinations [begin(p), end(p)), so
  // its size is a CSC offset difference and no count pass is needed.
  // (The offsets are empty only on a default-constructed Graph.)
  const std::span<const EdgeId> in_off = g.in_csr().offsets();
  PartitionedCoo out;
  out.offsets.resize(P + 1);
  for (std::size_t p = 0; p <= P; ++p)
    out.offsets[p] = in_off.empty() ? 0 : in_off[part.boundaries[p]];
  out.edges.resize(out.offsets[P]);

  if (order == EdgeOrder::Csr) {
    scatter_in_source_order(g, part, out);
    // (src, dst) packed into one integer compares without a branch per
    // field.
    const auto key = [](const Edge& e) {
      return (static_cast<std::uint64_t>(e.src) << 32) | e.dst;
    };
    for (std::size_t p = 0; p < P; ++p)
      VEBO_ASSERT(std::ranges::is_sorted(out.partition(p), {}, key));
    return out;
  }
  copy_in_destination_order(g, out);
  if (order == EdgeOrder::Hilbert) {
    // (index, edge) is a total order up to identical edges, so the
    // result does not depend on the order the copy left.
    const int k = order::hilbert_order_for(g.num_vertices());
    for (std::size_t p = 0; p < P; ++p)
      order::sort_edges_hilbert(
          std::span<Edge>(out.edges.data() + out.offsets[p],
                          out.edges.data() + out.offsets[p + 1]),
          k);
  }
  return out;
}

}  // namespace vebo
