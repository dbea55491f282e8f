#include "order/rcm.hpp"

#include <algorithm>
#include <cstdlib>
#include <queue>

#include "support/error.hpp"

namespace vebo::order {

namespace {

// Undirected adjacency: sorted union of in- and out-neighbors per vertex.
std::vector<std::vector<VertexId>> undirected_adjacency(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<std::vector<VertexId>> adj(n);
  for (VertexId v = 0; v < n; ++v) {
    auto out = g.out_neighbors(v);
    auto in = g.in_neighbors(v);
    auto& row = adj[v];
    row.reserve(out.size() + in.size());
    row.insert(row.end(), out.begin(), out.end());
    row.insert(row.end(), in.begin(), in.end());
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    std::erase(row, v);  // drop self-loops
  }
  return adj;
}

// BFS from `root` over `adj`, returns (farthest vertex, eccentricity).
// Only unvisited-in-`component` vertices are explored; `scratch` is a
// level array reused across calls.
std::pair<VertexId, VertexId> bfs_farthest(
    const std::vector<std::vector<VertexId>>& adj, VertexId root,
    std::vector<VertexId>& level) {
  std::fill(level.begin(), level.end(), kInvalidVertex);
  std::queue<VertexId> q;
  q.push(root);
  level[root] = 0;
  VertexId far = root, ecc = 0;
  while (!q.empty()) {
    const VertexId v = q.front();
    q.pop();
    for (VertexId u : adj[v]) {
      if (level[u] != kInvalidVertex) continue;
      level[u] = level[v] + 1;
      if (level[u] > ecc || (level[u] == ecc && adj[u].size() < adj[far].size())) {
        ecc = level[u];
        far = u;
      }
      q.push(u);
    }
  }
  return {far, ecc};
}

// Pseudo-peripheral vertex: iterate "go to the farthest vertex" until the
// eccentricity stops growing (George–Liu heuristic).
VertexId pseudo_peripheral(const std::vector<std::vector<VertexId>>& adj,
                           VertexId start, std::vector<VertexId>& level) {
  VertexId v = start;
  VertexId ecc = 0;
  for (int iter = 0; iter < 8; ++iter) {
    auto [far, e] = bfs_farthest(adj, v, level);
    if (e <= ecc) break;
    ecc = e;
    v = far;
  }
  return v;
}

}  // namespace

Permutation rcm(const Graph& g) {
  const VertexId n = g.num_vertices();
  const auto adj = undirected_adjacency(g);

  std::vector<bool> visited(n, false);
  std::vector<VertexId> cm_order;  // position -> old id (Cuthill–McKee)
  cm_order.reserve(n);
  std::vector<VertexId> level(n);

  // Vertices by increasing degree: component roots prefer low degree.
  std::vector<VertexId> by_degree(n);
  for (VertexId v = 0; v < n; ++v) by_degree[v] = v;
  std::sort(by_degree.begin(), by_degree.end(),
            [&](VertexId a, VertexId b) {
              if (adj[a].size() != adj[b].size())
                return adj[a].size() < adj[b].size();
              return a < b;
            });

  std::vector<VertexId> frontier;
  for (VertexId seed : by_degree) {
    if (visited[seed]) continue;
    const VertexId root = pseudo_peripheral(adj, seed, level);
    // Standard CM: BFS from root, visiting each vertex's unvisited
    // neighbors in increasing degree order.
    std::queue<VertexId> q;
    q.push(root);
    visited[root] = true;
    while (!q.empty()) {
      const VertexId v = q.front();
      q.pop();
      cm_order.push_back(v);
      frontier.clear();
      for (VertexId u : adj[v])
        if (!visited[u]) {
          visited[u] = true;
          frontier.push_back(u);
        }
      std::sort(frontier.begin(), frontier.end(),
                [&](VertexId a, VertexId b) {
                  if (adj[a].size() != adj[b].size())
                    return adj[a].size() < adj[b].size();
                  return a < b;
                });
      for (VertexId u : frontier) q.push(u);
    }
  }
  VEBO_ASSERT(cm_order.size() == n);

  // Reverse: position i in CM becomes position n-1-i.
  Permutation perm(n);
  for (VertexId i = 0; i < n; ++i)
    perm[cm_order[i]] = n - 1 - i;
  return perm;
}

EdgeId bandwidth(const Graph& g, std::span<const VertexId> perm) {
  EdgeId bw = 0;
  g.for_each_edge([&](VertexId u, VertexId v) {
    const auto a = static_cast<std::int64_t>(perm[u]);
    const auto b = static_cast<std::int64_t>(perm[v]);
    bw = std::max<EdgeId>(bw, static_cast<EdgeId>(std::llabs(a - b)));
  });
  return bw;
}

}  // namespace vebo::order
