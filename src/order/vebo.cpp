#include "order/vebo.hpp"

#include <algorithm>

#include "graph/degree.hpp"
#include "support/error.hpp"
#include "support/minheap.hpp"

namespace vebo::order {

namespace {

// Phases 1-2 of Algorithm 2, from the loads `w` (in-edges) and `u`
// (vertices) already on the partitions. `queue` lists the vertices to
// place, non-zero degrees first by decreasing degree: each of those goes
// to the partition with the fewest in-edges, each zero-degree vertex after
// them to the partition with the fewest vertices (ties -> lowest partition
// id).
void place(std::span<const VertexId> queue,
           const std::vector<EdgeId>& in_degree, std::vector<VertexId>& assign,
           std::vector<EdgeId>& w, std::vector<VertexId>& u) {
  const VertexId P = static_cast<VertexId>(w.size());
  IndexedMinHeap<4> heap(P);
  for (VertexId p = 0; p < P; ++p) heap.update(p, w[p]);
  std::size_t t = 0;
  for (; t < queue.size() && in_degree[queue[t]] > 0; ++t) {
    const VertexId v = queue[t];
    const auto p = heap.top();
    assign[v] = static_cast<VertexId>(p);
    heap.increase(p, in_degree[v]);
    w[p] += in_degree[v];
    ++u[p];
  }
  for (VertexId p = 0; p < P; ++p) heap.update(p, u[p]);
  for (; t < queue.size(); ++t) {
    const VertexId v = queue[t];
    const auto p = heap.top();
    assign[v] = static_cast<VertexId>(p);
    heap.increase(p, 1);
    ++u[p];
  }
}

// Phase 3 plus the loads: `visit` hands every vertex over in the order it
// takes the next id of its partition's chunk.
template <typename Visit>
VeboResult make_result(std::span<const VertexId> assign,
                       std::vector<EdgeId> w, std::vector<VertexId> u,
                       Visit&& visit) {
  VeboResult res;
  res.partitioning = partition_from_counts(u);
  res.perm = number_by_partition(res.partitioning, assign, visit);
  res.part_edges = std::move(w);
  res.part_vertices = std::move(u);
  return res;
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
  return make_result(assign, std::move(w), std::move(u), [&](auto&& number) {
    for (VertexId v : sorted) number(v);
  });
}

VeboResult vebo(const Graph& g, VertexId P, const VeboOptions& opts) {
  return vebo_from_degrees(in_degrees(g), P, opts);
}

Graph vebo_reorder(const Graph& g, VertexId P, const VeboOptions& opts) {
  return permute(g, vebo(g, P, opts).perm);
}

VeboResult vebo_refine(const std::vector<EdgeId>& in_degree,
                       const VeboResult& prev,
                       std::span<const VertexId> dirty) {
  const VertexId old_n = static_cast<VertexId>(prev.perm.size());
  const VertexId n = static_cast<VertexId>(in_degree.size());
  const VertexId P = prev.num_partitions();
  VEBO_CHECK(P >= 1, "vebo_refine: previous result has no partitions");
  VEBO_CHECK(n >= old_n, "vebo_refine: vertex set shrank");

  // Current partition of every old vertex, derived from the previous
  // permutation (partitions are contiguous id ranges in the new space),
  // and the partition loads under the live degrees.
  std::vector<VertexId> assign(n, kInvalidVertex);
  std::vector<EdgeId> w(P, 0);
  std::vector<VertexId> u(P, 0);
  for (VertexId v = 0; v < old_n; ++v) {
    const VertexId p = prev.partitioning.owner(prev.perm[v]);
    assign[v] = p;
    w[p] += in_degree[v];
    ++u[p];
  }

  // Dirty set = caller's list (deduped) plus all new vertices.
  std::vector<bool> is_dirty(n, false);
  std::vector<VertexId> work;
  work.reserve(dirty.size() + (n - old_n));
  for (VertexId v : dirty) {
    VEBO_CHECK(v < n, "vebo_refine: dirty vertex out of range");
    if (!is_dirty[v]) {
      is_dirty[v] = true;
      work.push_back(v);
    }
  }
  for (VertexId v = old_n; v < n; ++v)
    if (!is_dirty[v]) {
      is_dirty[v] = true;
      work.push_back(v);
    }

  // Take the dirty old vertices off their partitions.
  for (VertexId v : work)
    if (v < old_n) {
      w[assign[v]] -= in_degree[v];
      --u[assign[v]];
    }

  // Re-place in decreasing current degree (ties: ascending id, matching
  // the stability of the full run's counting sort).
  std::sort(work.begin(), work.end(), [&](VertexId a, VertexId b) {
    if (in_degree[a] != in_degree[b]) return in_degree[a] > in_degree[b];
    return a < b;
  });
  place(work, in_degree, assign, w, u);

  // Vertex-count repair: the edge-weight placement above can leave
  // partitions short on vertices (full VEBO equalizes vertex counts with
  // its zero-degree phase over the whole graph). Shuffle zero-degree
  // vertices — free with respect to edge balance — from overfull to
  // underfull partitions until δ <= 1 or no movable vertex remains; moved
  // vertices join the re-placed set for renumbering.
  {
    std::vector<std::vector<VertexId>> zeros(P);
    for (VertexId v = 0; v < n; ++v)
      if (in_degree[v] == 0) zeros[assign[v]].push_back(v);
    while (true) {
      VertexId pmin = 0, pdonor = P;
      for (VertexId p = 1; p < P; ++p)
        if (u[p] < u[pmin]) pmin = p;
      for (VertexId p = 0; p < P; ++p)
        if (!zeros[p].empty() && u[p] > u[pmin] + 1 &&
            (pdonor == P || u[p] > u[pdonor]))
          pdonor = p;
      if (pdonor == P) break;
      const VertexId v = zeros[pdonor].back();
      zeros[pdonor].pop_back();
      assign[v] = pmin;
      zeros[pmin].push_back(v);
      --u[pdonor];
      ++u[pmin];
      if (!is_dirty[v]) {
        is_dirty[v] = true;
        work.push_back(v);
      }
    }
  }

  // Renumber: non-dirty vertices keep their previous relative order within
  // each partition; re-placed vertices follow in placement order.
  return make_result(assign, std::move(w), std::move(u), [&](auto&& number) {
    const Permutation at_pos = invert(prev.perm);
    for (VertexId v : at_pos)
      if (!is_dirty[v]) number(v);
    for (VertexId v : work) number(v);
  });
}

}  // namespace vebo::order
