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

PartitionedCoo build_partitioned_coo(const Graph& g,
                                     const order::Partitioning& part,
                                     EdgeOrder order) {
  const std::size_t P = part.num_partitions();
  VEBO_CHECK(P >= 1, "partitioned COO requires at least one partition");
  PartitionedCoo out;
  out.offsets.assign(P + 1, 0);

  // Count edges per destination partition.
  for (const Edge& e : g.coo().edges()) ++out.offsets[part.owner(e.dst) + 1];
  for (std::size_t p = 1; p <= P; ++p) out.offsets[p] += out.offsets[p - 1];

  out.edges.resize(g.coo().edges().size());
  std::vector<std::size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (const Edge& e : g.coo().edges())
    out.edges[cursor[part.owner(e.dst)]++] = e;

  // Order edges within each partition. The scatter above is stable and
  // the COO is sorted by (src, dst), so every partition is already in CSR
  // order.
  const int k = order::hilbert_order_for(g.num_vertices());
  for (std::size_t p = 0; p < P; ++p) {
    auto lo = out.edges.begin() + static_cast<std::ptrdiff_t>(out.offsets[p]);
    auto hi =
        out.edges.begin() + static_cast<std::ptrdiff_t>(out.offsets[p + 1]);
    switch (order) {
      case EdgeOrder::Csr:
        VEBO_ASSERT(std::is_sorted(lo, hi));
        break;
      case EdgeOrder::Csc:
        std::sort(lo, hi, [](const Edge& a, const Edge& b) {
          if (a.dst != b.dst) return a.dst < b.dst;
          return a.src < b.src;
        });
        break;
      case EdgeOrder::Hilbert:
        std::sort(lo, hi, [k](const Edge& a, const Edge& b) {
          const auto ha = order::hilbert_index(a.src, a.dst, k);
          const auto hb = order::hilbert_index(b.src, b.dst, k);
          if (ha != hb) return ha < hb;
          return a < b;
        });
        break;
    }
  }
  return out;
}

}  // namespace vebo
