#include "algorithms/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "algorithms/bellman_ford.hpp"
#include "algorithms/spmv.hpp"
#include "framework/engine.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace vebo::algo {

namespace {

// Two-phase dynamic-SSSP repair shared by BFS (unit weights over
// VertexId levels) and Bellman-Ford (edge_weight over doubles).
//
// Phase 1 invalidates: a removed arc (u, v) that was tight
// (old[v] == old[u] + w) may have been v's last support, so v becomes a
// candidate. Candidates are processed in increasing old-distance order —
// every vertex that could lose its support at a smaller distance is
// decided first — and a candidate survives iff some still-unaffected
// in-neighbor supports its old distance exactly. Invalidated vertices
// cascade through their tight out-arcs and reset to `inf`.
//
// Phase 2 re-relaxes: the surviving assignment is a valid, achievable
// upper bound on the new graph (every survivor kept an intact support
// chain down to the source), so worklist relaxation from the intact
// boundary of the affected region plus the inserted arcs converges to
// the unique fixed point — the exact from-scratch answer.
template <typename DistT, typename WeightFn>
void sssp_repair(const Engine& eng, VertexId source, std::vector<DistT>& dist,
                 DistT inf, const EdgeDelta& delta, WeightFn weight) {
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  const std::vector<DistT> old = dist;

  std::vector<std::uint8_t> affected(n, 0);
  using Entry = std::pair<DistT, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  for (const Edge& e : delta.removed) {
    if (e.src >= n || e.dst >= n || e.dst == source) continue;
    if (old[e.src] == inf || old[e.dst] == inf) continue;
    if (old[e.dst] == old[e.src] + weight(e.src, e.dst))
      pq.push({old[e.dst], e.dst});
  }
  while (!pq.empty()) {
    const auto [dv, v] = pq.top();
    pq.pop();
    if (affected[v]) continue;
    bool supported = false;
    for (VertexId u : g.in_neighbors(v)) {
      if (affected[u] || old[u] == inf) continue;
      if (dv == old[u] + weight(u, v)) {
        supported = true;
        break;
      }
    }
    if (supported) continue;
    affected[v] = 1;
    dist[v] = inf;
    for (VertexId w : g.out_neighbors(v)) {
      if (affected[w] || w == source) continue;
      if (old[w] != inf && old[w] == dv + weight(v, w)) pq.push({old[w], w});
    }
  }

  std::vector<std::uint8_t> queued(n, 0);
  std::vector<VertexId> frontier, next;
  auto seed = [&](VertexId u) {
    if (!queued[u]) {
      queued[u] = 1;
      frontier.push_back(u);
    }
  };
  for (VertexId v = 0; v < n; ++v) {
    if (!affected[v]) continue;
    for (VertexId u : g.in_neighbors(v))
      if (dist[u] != inf) seed(u);
  }
  for (const Edge& e : delta.inserted)
    if (e.src < n && dist[e.src] != inf) seed(e.src);

  std::size_t rounds = 0;
  while (!frontier.empty()) {
    VEBO_CHECK(++rounds <= static_cast<std::size_t>(n) + 1,
               "sssp repair: relaxation failed to converge");
    eng.poll_cancellation();
    next.clear();
    for (VertexId u : frontier) queued[u] = 0;
    for (VertexId u : frontier) {
      const DistT du = dist[u];
      if (du == inf) continue;
      for (VertexId v : g.out_neighbors(u)) {
        const DistT cand = du + weight(u, v);
        if (cand < dist[v]) {
          dist[v] = cand;
          if (!queued[v]) {
            queued[v] = 1;
            next.push_back(v);
          }
        }
      }
    }
    frontier.swap(next);
  }
}

}  // namespace

std::vector<double> refresh_pagerank(const Engine& eng,
                                     std::vector<double> rank,
                                     const EdgeDelta& delta, double damping,
                                     double epsilon, int max_iters) {
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  VEBO_CHECK(rank.size() == n, "refresh_pagerank: stale payload size");
  if (n == 0) return rank;

  // Group the delta by source: each changed source's contribution shifts
  // from rank/old_deg along the old arcs to rank/new_deg along the new
  // arcs; everyone else's contribution is unchanged, so the initial
  // residual is computable from the changed sources alone.
  struct SrcDelta {
    std::vector<VertexId> ins, rem;
  };
  std::unordered_map<VertexId, SrcDelta> by_src;
  for (const Edge& e : delta.inserted) by_src[e.src].ins.push_back(e.dst);
  for (const Edge& e : delta.removed) by_src[e.src].rem.push_back(e.dst);

  // The pending residual is a float; the ranks stay double, and the
  // float halves the array the pushes scatter into. `d[v] += c` rounds
  // v's running sum once per push it receives, so the error grows with
  // a vertex's pushes (a hub's in-degree times its running residual),
  // not with 2^-24 of one push; no analytic bound is claimed. Measured
  // over serve-write's five chained epochs, the worst PR/PRD error
  // against a scratch run read 2.3% of perfbench's 1e-5 * (|w| + 1/n)
  // tolerance (2.4% with a double residual).
  std::vector<float> d(n, 0.0f);
  std::vector<std::uint8_t> touched_flag(n, 0);
  std::vector<VertexId> touched;
  auto touch = [&](VertexId v, double x) {
    d[v] = static_cast<float>(d[v] + x);
    if (!touched_flag[v]) {
      touched_flag[v] = 1;
      touched.push_back(v);
    }
  };
  for (auto& [u, sd] : by_src) {
    const auto new_deg = static_cast<std::int64_t>(g.out_degree(u));
    const std::int64_t old_deg = new_deg -
                                 static_cast<std::int64_t>(sd.ins.size()) +
                                 static_cast<std::int64_t>(sd.rem.size());
    const double cn =
        new_deg > 0 ? rank[u] / static_cast<double>(new_deg) : 0.0;
    const double co =
        old_deg > 0 ? rank[u] / static_cast<double>(old_deg) : 0.0;
    // Every surviving old arc's share moves from co to cn and a new arc
    // receives the full cn. Seed all current arcs with (cn - co), then
    // top the inserted arcs back up by co: inserted arcs net to cn while
    // pre-existing arcs keep the (cn - co) shift — no per-neighbor
    // membership test needed. Removed arcs lose their whole co.
    const double shift = cn - co;
    for (VertexId v : g.out_neighbors(u)) touch(v, shift);
    for (VertexId v : sd.ins) touch(v, co);
    for (VertexId v : sd.rem) touch(v, -co);
  }

  const double floor = 1.0 / static_cast<double>(n);
  auto active = [&](VertexId v) {
    return std::abs(static_cast<double>(d[v])) >
           epsilon * std::max(rank[v], floor);
  };
  std::vector<VertexId> frontier;
  EdgeId frontier_deg = 0;
  auto recheck = [&](VertexId v) {
    if (active(v)) {
      frontier.push_back(v);
      frontier_deg += g.out_degree(v);
    }
  };
  for (VertexId v : touched) {
    touched_flag[v] = 0;
    d[v] = static_cast<float>(damping * d[v]);
    recheck(v);
  }
  touched.clear();

  // PRD-style residual propagation: apply a vertex's pending residual to
  // its rank and push damping * d / deg to its out-neighbors; a vertex
  // stays active while its pending residual is above the same relative
  // threshold pagerank_delta uses. Sub-threshold residuals stay pending
  // (identical drop semantics to PRD's inactive deltas). Each push
  // amount is computed in double and rounded to float once.
  //
  // Rounds run in one of two modes, picked by the out-degree sum of what
  // is active. A sparse round pushes a frontier list and tracks which
  // vertices it touched, so only they are rechecked. Once that edge work
  // rivals the vertex count (hub-heavy frontiers on power-law graphs get
  // there fast), the list costs more than it saves: a dense round is one
  // in-order (Gauss-Seidel) sweep over every vertex that pushes each
  // residual above the threshold the moment it reaches it, so pushes to
  // later ids count in the same sweep, and it builds no list. A sweep
  // that pushes nothing ends the refresh; one whose pushed out-degree
  // sum falls to n/4 hands back to sparse rounds with one scan. The mode
  // only changes the schedule, not the drop semantics.
  bool sweep = frontier_deg > n / 4;
  int it = 0;
  while ((sweep || !frontier.empty()) && it < max_iters) {
    eng.poll_cancellation();
    obs::SpanScope iter(obs::SpanKind::Iteration);
    const bool dense_round = sweep;
    VertexId pushed = 0;
    EdgeId pushed_deg = 0;
    auto push = [&](VertexId u, auto&& scatter) {
      const double du = d[u];
      d[u] = 0.0f;
      rank[u] += du;
      const EdgeId deg = g.out_degree(u);
      ++pushed;
      pushed_deg += deg;
      if (deg == 0 || du == 0.0) return;
      const auto c =
          static_cast<float>(damping * du / static_cast<double>(deg));
      for (VertexId v : g.out_neighbors(u)) scatter(v, c);
    };
    if (dense_round) {
      for (VertexId u = 0; u < n; ++u)
        if (active(u)) push(u, [&](VertexId v, float c) { d[v] += c; });
      frontier.clear();
      frontier_deg = 0;
      sweep = pushed_deg > n / 4;
      if (!sweep && pushed > 0)
        for (VertexId v = 0; v < n; ++v) recheck(v);
    } else {
      for (VertexId u : frontier)
        push(u, [&](VertexId v, float c) {
          d[v] += c;
          if (!touched_flag[v]) {
            touched_flag[v] = 1;
            touched.push_back(v);
          }
        });
      frontier.clear();
      frontier_deg = 0;
      for (VertexId v : touched) {
        touched_flag[v] = 0;
        recheck(v);
      }
      touched.clear();
      sweep = frontier_deg > n / 4;
    }
    if (iter.live()) {
      iter.span().a = static_cast<std::uint64_t>(it);
      iter.span().b = pushed;
      iter.span().c = pushed_deg;
      iter.span().rep = dense_round ? 2 : 1;
    }
    ++it;
  }
  return rank;
}

std::vector<VertexId> refresh_components(const Engine& eng,
                                         const std::vector<VertexId>& prev,
                                         const EdgeDelta& delta) {
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  VEBO_CHECK(prev.size() == n, "refresh_components: stale payload size");

  // Every previous component that lost an arc is re-derived from actual
  // adjacency (a removal may split it); everything else keeps its old
  // connectivity, encoded as one union with its previous label (which
  // names a member vertex — translation preserves that, though not
  // minimality, which the final pass restores).
  std::unordered_set<VertexId> hit;
  for (const Edge& e : delta.removed) {
    if (e.src < n) hit.insert(prev[e.src]);
    if (e.dst < n) hit.insert(prev[e.dst]);
  }

  std::vector<VertexId> parent(n);
  std::iota(parent.begin(), parent.end(), VertexId{0});
  auto find = [&](VertexId x) {
    VertexId r = x;
    while (parent[r] != r) r = parent[r];
    while (parent[x] != r) {
      const VertexId nx = parent[x];
      parent[x] = r;
      x = nx;
    }
    return r;
  };
  auto unite = [&](VertexId a, VertexId b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  };

  for (VertexId v = 0; v < n; ++v) {
    VEBO_CHECK(prev[v] < n, "refresh_components: stale label");
    if (!hit.empty() && hit.count(prev[v]) != 0) {
      // Affected: connectivity comes only from the arcs actually present.
      for (VertexId u : g.out_neighbors(v)) unite(v, u);
      for (VertexId u : g.in_neighbors(v)) unite(v, u);
    } else {
      unite(v, prev[v]);
    }
  }
  for (const Edge& e : delta.inserted)
    if (e.src < n && e.dst < n) unite(e.src, e.dst);

  // Label propagation converges to the component-minimum vertex id; the
  // min pass reproduces it exactly (bit-exact integers).
  std::vector<VertexId> minv(n, kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId r = find(v);
    if (v < minv[r]) minv[r] = v;
  }
  std::vector<VertexId> out(n);
  for (VertexId v = 0; v < n; ++v) out[v] = minv[find(v)];
  return out;
}

std::vector<VertexId> refresh_bfs_levels(const Engine& eng, VertexId source,
                                         std::vector<VertexId> level,
                                         const EdgeDelta& delta) {
  VEBO_CHECK(level.size() == eng.graph().num_vertices(),
             "refresh_bfs_levels: stale payload size");
  sssp_repair<VertexId>(eng, source, level, kInvalidVertex, delta,
                        [](VertexId, VertexId) { return VertexId{1}; });
  return level;
}

std::vector<double> refresh_bf_distances(const Engine& eng, VertexId source,
                                         std::vector<double> dist,
                                         const EdgeDelta& delta) {
  VEBO_CHECK(dist.size() == eng.graph().num_vertices(),
             "refresh_bf_distances: stale payload size");
  sssp_repair<double>(eng, source, dist, kUnreachable, delta,
                      [](VertexId u, VertexId v) { return edge_weight(u, v); });
  return dist;
}

}  // namespace vebo::algo
