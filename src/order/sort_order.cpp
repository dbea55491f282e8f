#include "order/sort_order.hpp"

#include <deque>

#include "graph/degree.hpp"
#include "support/prng.hpp"

namespace vebo::order {

Permutation original(const Graph& g) {
  return identity_permutation(g.num_vertices());
}

Permutation random_order(VertexId n, std::uint64_t seed) {
  Permutation perm = identity_permutation(n);
  if (n == 0) return perm;
  Xoshiro256 rng(seed);
  for (VertexId v = n - 1; v > 0; --v) {
    const VertexId j = static_cast<VertexId>(rng.next_below(v + 1));
    std::swap(perm[v], perm[j]);
  }
  return perm;
}

Permutation degree_sort_high_to_low(const Graph& g) {
  const auto sorted = vertices_by_decreasing_in_degree(g);
  Permutation perm(g.num_vertices());
  for (VertexId i = 0; i < g.num_vertices(); ++i) perm[sorted[i]] = i;
  return perm;
}

Permutation bfs_order(const Graph& g, VertexId source) {
  const VertexId n = g.num_vertices();
  Permutation perm(n, kInvalidVertex);
  if (n == 0) return perm;
  VertexId next_id = 0;
  std::vector<bool> queued(n, false);
  std::deque<VertexId> q;
  auto run = [&](VertexId root) {
    if (queued[root]) return;
    queued[root] = true;
    q.push_back(root);
    while (!q.empty()) {
      const VertexId v = q.front();
      q.pop_front();
      perm[v] = next_id++;
      for (VertexId u : g.out_neighbors(v))
        if (!queued[u]) {
          queued[u] = true;
          q.push_back(u);
        }
    }
  };
  run(source % n);
  for (VertexId v = 0; v < n; ++v) run(v);
  return perm;
}

Permutation dfs_order(const Graph& g, VertexId source) {
  const VertexId n = g.num_vertices();
  Permutation perm(n, kInvalidVertex);
  if (n == 0) return perm;
  VertexId next_id = 0;
  std::vector<bool> pushed(n, false);
  std::vector<VertexId> stack;
  auto run = [&](VertexId root) {
    if (pushed[root]) return;
    pushed[root] = true;
    stack.push_back(root);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      perm[v] = next_id++;
      auto nb = g.out_neighbors(v);
      for (auto it = nb.rbegin(); it != nb.rend(); ++it)
        if (!pushed[*it]) {
          pushed[*it] = true;
          stack.push_back(*it);
        }
    }
  };
  run(source % n);
  for (VertexId v = 0; v < n; ++v) run(v);
  return perm;
}

}  // namespace vebo::order
