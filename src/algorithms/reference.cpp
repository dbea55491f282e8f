#include "algorithms/reference.hpp"

#include <algorithm>
#include <queue>

#include "algorithms/bellman_ford.hpp"  // kUnreachable
#include "algorithms/spmv.hpp"          // edge_weight

namespace vebo::algo::ref {

std::vector<VertexId> bfs_levels(const Graph& g, VertexId source) {
  std::vector<VertexId> level(g.num_vertices(), kInvalidVertex);
  std::queue<VertexId> q;
  level[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const VertexId v = q.front();
    q.pop();
    for (VertexId u : g.out_neighbors(v))
      if (level[u] == kInvalidVertex) {
        level[u] = level[v] + 1;
        q.push(u);
      }
  }
  return level;
}

namespace {
class UnionFind {
 public:
  explicit UnionFind(VertexId n) : parent_(n) {
    for (VertexId v = 0; v < n; ++v) parent_[v] = v;
  }
  VertexId find(VertexId v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  void unite(VertexId a, VertexId b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);  // keep the smaller id as root
    parent_[b] = a;
  }

 private:
  std::vector<VertexId> parent_;
};
}  // namespace

std::vector<VertexId> wcc_labels(const Graph& g) {
  UnionFind uf(g.num_vertices());
  g.for_each_edge([&](VertexId u, VertexId v) { uf.unite(u, v); });
  std::vector<VertexId> label(g.num_vertices());
  // Roots are minimal ids by the union rule, but path compression can
  // leave stale parents; a final find pass canonicalizes. Then map every
  // vertex to the min id in its component.
  std::vector<VertexId> min_id(g.num_vertices(), kInvalidVertex);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId r = uf.find(v);
    min_id[r] = std::min(min_id[r], v);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    label[v] = min_id[uf.find(v)];
  return label;
}

std::vector<double> pagerank(const Graph& g, int iterations, double damping) {
  const VertexId n = g.num_vertices();
  const double base = (1.0 - damping) / static_cast<double>(n);
  std::vector<double> rank(n, 1.0 / static_cast<double>(n)), next(n);
  for (int it = 0; it < iterations; ++it) {
    std::fill(next.begin(), next.end(), base);
    for (VertexId u = 0; u < n; ++u) {
      const EdgeId d = g.out_degree(u);
      if (d == 0) continue;
      const double c = damping * rank[u] / static_cast<double>(d);
      for (VertexId v : g.out_neighbors(u)) next[v] += c;
    }
    rank.swap(next);
  }
  return rank;
}

std::vector<double> dijkstra(const Graph& g, VertexId source) {
  std::vector<double> dist(g.num_vertices(), kUnreachable);
  using Item = std::pair<double, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[source] = 0.0;
  pq.push({0.0, source});
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    for (VertexId u : g.out_neighbors(v)) {
      const double cand = d + edge_weight(v, u);
      if (cand < dist[u]) {
        dist[u] = cand;
        pq.push({cand, u});
      }
    }
  }
  return dist;
}

std::vector<double> brandes_dependency(const Graph& g, VertexId source) {
  const VertexId n = g.num_vertices();
  std::vector<double> sigma(n, 0.0), delta(n, 0.0);
  std::vector<VertexId> level(n, kInvalidVertex);
  std::vector<VertexId> order;  // BFS visit order
  sigma[source] = 1.0;
  level[source] = 0;
  std::queue<VertexId> q;
  q.push(source);
  while (!q.empty()) {
    const VertexId v = q.front();
    q.pop();
    order.push_back(v);
    for (VertexId u : g.out_neighbors(v)) {
      if (level[u] == kInvalidVertex) {
        level[u] = level[v] + 1;
        q.push(u);
      }
      if (level[u] == level[v] + 1) sigma[u] += sigma[v];
    }
  }
  for (std::size_t i = order.size(); i-- > 0;) {
    const VertexId v = order[i];
    for (VertexId u : g.out_neighbors(v))
      if (level[u] == level[v] + 1 && sigma[u] > 0.0)
        delta[v] += sigma[v] / sigma[u] * (1.0 + delta[u]);
  }
  return delta;
}

std::vector<double> spmv(const Graph& g, const std::vector<double>& x) {
  std::vector<double> y(g.num_vertices(), 0.0);
  g.for_each_edge(
      [&](VertexId u, VertexId v) { y[v] += edge_weight(u, v) * x[u]; });
  return y;
}

}  // namespace vebo::algo::ref
