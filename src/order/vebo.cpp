#include "order/vebo.hpp"

#include <algorithm>
#include <span>

#include "graph/degree.hpp"
#include "support/error.hpp"
#include "support/minheap.hpp"

namespace vebo::order {

namespace {

// Phases 1-2 of Algorithm 2 onto P empty partitions. `sorted` lists the
// vertices by decreasing in-degree: each one with a non-zero degree goes
// to the partition with the fewest in-edges so far (`w`), each zero-degree
// one after them to the partition with the fewest vertices (`u`); ties ->
// lowest partition id.
void place(std::span<const VertexId> sorted,
           const std::vector<EdgeId>& in_degree, std::vector<VertexId>& assign,
           std::vector<EdgeId>& w, std::vector<VertexId>& u) {
  const VertexId P = static_cast<VertexId>(w.size());
  IndexedMinHeap<4> heap(P);
  std::size_t t = 0;
  for (; t < sorted.size() && in_degree[sorted[t]] > 0; ++t) {
    const VertexId v = sorted[t];
    const auto p = heap.top();
    assign[v] = static_cast<VertexId>(p);
    heap.increase(p, in_degree[v]);
    w[p] += in_degree[v];
    ++u[p];
  }
  for (VertexId p = 0; p < P; ++p) heap.update(p, u[p]);
  for (; t < sorted.size(); ++t) {
    const VertexId v = sorted[t];
    const auto p = heap.top();
    assign[v] = static_cast<VertexId>(p);
    heap.increase(p, 1);
    ++u[p];
  }
}

}  // namespace

EdgeId VeboResult::edge_imbalance() const { return imbalance(part_edges); }

VertexId VeboResult::vertex_imbalance() const {
  return imbalance(part_vertices);
}

VeboResult vebo_from_degrees(const std::vector<EdgeId>& in_degree,
                             VertexId P, const VeboOptions& opts) {
  VEBO_CHECK(P >= 1, "vebo: P must be >= 1");
  const VertexId n = static_cast<VertexId>(in_degree.size());
  VEBO_CHECK(n > 0, "vebo: empty graph");

  // Line 4: vertices sorted by decreasing in-degree. The counting sort is
  // stable on vertex id, so same-degree vertices appear in ascending
  // original-id order — the property the blocked variant relies on.
  const std::vector<VertexId> sorted = vertices_by_decreasing_degree(in_degree);

  std::vector<VertexId> assign(n, 0);  // a[v]
  std::vector<EdgeId> w(P, 0);         // edge count per partition
  std::vector<VertexId> u(P, 0);       // vertex count per partition
  place(sorted, in_degree, assign, w, u);

  if (opts.blocked) {
    // Locality-preserving adjustment: within each run of equal degree in
    // the sorted order, the multiset of assigned partitions is kept but
    // handed out in ascending partition order. Because the sort is stable,
    // the run's vertices are in ascending original-id order, so blocks of
    // consecutive original ids land on the same partition.
    VertexId run_begin = 0;
    std::vector<VertexId> labels;
    while (run_begin < n) {
      VertexId run_end = run_begin + 1;
      const EdgeId d = in_degree[sorted[run_begin]];
      while (run_end < n && in_degree[sorted[run_end]] == d) ++run_end;
      labels.clear();
      for (VertexId t = run_begin; t < run_end; ++t)
        labels.push_back(assign[sorted[t]]);
      std::sort(labels.begin(), labels.end());
      for (VertexId t = run_begin; t < run_end; ++t)
        assign[sorted[t]] = labels[t - run_begin];
      run_begin = run_end;
    }
  }

  // Phase 3: partition p occupies [sum u[0..p-1], sum u[0..p]). Numbering
  // in processing order gives decreasing degree within each partition.
  VeboResult res;
  res.partitioning = partition_from_counts(u);
  res.perm = number_by_partition(res.partitioning, assign, [&](auto&& number) {
    for (VertexId v : sorted) number(v);
  });
  res.part_edges = std::move(w);
  res.part_vertices = std::move(u);
  return res;
}

VeboResult vebo(const Graph& g, VertexId P, const VeboOptions& opts) {
  return vebo_from_degrees(in_degrees(g), P, opts);
}

Graph vebo_reorder(const Graph& g, VertexId P, const VeboOptions& opts) {
  return permute(g, vebo(g, P, opts).perm);
}

}  // namespace vebo::order
