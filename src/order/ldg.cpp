#include "order/ldg.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace vebo::order {

LdgResult ldg(const Graph& g, VertexId P, const LdgOptions& opts) {
  const VertexId n = g.num_vertices();
  VEBO_CHECK(P >= 1, "ldg: P must be >= 1");
  VEBO_CHECK(opts.slack >= 1.0, "ldg: slack must be >= 1");
  const double capacity =
      opts.slack * static_cast<double>(n) / static_cast<double>(P);

  LdgResult res;
  res.assignment.assign(n, 0);
  std::vector<VertexId> fill(P, 0);
  std::vector<double> score(P);
  std::vector<bool> placed(n, false);

  // Stream vertices in id order (the streaming model's arrival order).
  for (VertexId v = 0; v < n; ++v) {
    std::fill(score.begin(), score.end(), 0.0);
    // Count already-placed neighbors per partition (undirected view).
    auto count = [&](VertexId u) {
      if (placed[u]) score[res.assignment[u]] += 1.0;
    };
    for (VertexId u : g.out_neighbors(v)) count(u);
    for (VertexId u : g.in_neighbors(v)) count(u);
    // LDG objective: |N(v) ∩ part| * (1 - fill/capacity); ties -> the
    // emptiest partition (then lowest id) for determinism.
    VertexId best = 0;
    double best_score = -1.0;
    for (VertexId p = 0; p < P; ++p) {
      const double penalty =
          1.0 - static_cast<double>(fill[p]) / capacity;
      if (penalty <= 0.0) continue;  // partition full
      const double s = score[p] * penalty;
      if (s > best_score ||
          (s == best_score && fill[p] < fill[best]) ||
          (s == best_score && fill[p] == fill[best] && p < best)) {
        best_score = s;
        best = p;
      }
    }
    res.assignment[v] = best;
    ++fill[best];
    placed[v] = true;
  }

  // Edge cut fraction.
  EdgeId cut = 0;
  g.for_each_edge([&](VertexId u, VertexId v) {
    if (res.assignment[u] != res.assignment[v]) ++cut;
  });
  res.edge_cut_fraction =
      g.num_edges() ? static_cast<double>(cut) / g.num_edges() : 0.0;

  // Relabel so each partition is a contiguous chunk (stable within a
  // partition to keep streaming locality).
  res.partitioning = partition_from_counts(fill);
  res.perm = number_by_partition(res.partitioning, res.assignment,
                                 [&](auto&& number) {
                                   for (VertexId v = 0; v < n; ++v) number(v);
                                 });
  return res;
}

}  // namespace vebo::order
