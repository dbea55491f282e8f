// Incremental (delta-driven) recompute kernels behind the AlgorithmSpec
// refresh hooks (PR 10). Every function here works entirely in the id
// space of the engine's CURRENT graph: the caller has already translated
// the previous epoch's payload (translate_from_original_ids) and the net
// edge delta into snapshot ids.
//
// Exactness contract (mirrored in ROADMAP "Incremental maintenance"):
//  * refresh_components / refresh_bfs_levels / refresh_bf_distances are
//    BIT-EXACT against a from-scratch run — CC labels, BFS levels and
//    Bellman-Ford distances all have a unique fixed point, and the
//    repair reaches exactly it (BF path sums are left-folded in the
//    same association as the scratch relaxation, so even the doubles
//    agree bitwise).
//  * refresh_pagerank is a warm-started residual propagation: it
//    converges to the SAME fixed point the power method approaches, but
//    cannot replay the scratch run's fixed-iteration trajectory (that
//    would require the previous run's per-iteration history). Agreement
//    with a from-scratch run is therefore at the algorithm's own
//    convergence scale — tight when both are run to convergence,
//    epsilon-bounded otherwise. Its pending residual is a float (the
//    ranks stay double), whose rounding error grows with the pushes a
//    vertex receives; over serve-write's five chained epochs the worst
//    error against a scratch run read 2.3% of perfbench's tolerance
//    (2.4% with a double residual).
#pragma once

#include <vector>

#include "algorithms/query.hpp"
#include "graph/types.hpp"

namespace vebo {
class Engine;
}  // namespace vebo

namespace vebo::algo {

/// Warm-started PageRank: seeds from `rank` (the previous epoch's ranks
/// for this graph's vertices), computes the initial residual purely from
/// the changed edges (old-vs-new contribution of every source whose
/// out-arcs changed), and propagates PRD-style until every pending
/// residual is below epsilon * max(rank, 1/n) or max_iters rounds ran.
/// A round is sparse (push a frontier list, recheck what it touched)
/// while the active out-degree sum is at most n/4, and otherwise one
/// in-order Gauss-Seidel sweep that pushes each residual above the
/// threshold as it reaches it. Serial and deterministic. Shared by the
/// PR and PRD hooks (they differ only in parameters). Under an armed
/// tracer each round records an Iteration span (a = round, b = vertices
/// pushed, c = out-edges pushed, rep = 1 sparse / 2 dense).
std::vector<double> refresh_pagerank(const Engine& eng,
                                     std::vector<double> rank,
                                     const EdgeDelta& delta, double damping,
                                     double epsilon, int max_iters);

/// Incremental connected components: union-find seeded from the previous
/// labels. Inserts union the two endpoint classes; removals mark every
/// previous component that lost an arc as "affected" and re-derive its
/// connectivity from the actual adjacency (bounded recompute — splits
/// are found, not guessed). A final min-id pass reproduces label
/// propagation's converged labels exactly (component-minimum vertex id).
std::vector<VertexId> refresh_components(const Engine& eng,
                                         const std::vector<VertexId>& prev,
                                         const EdgeDelta& delta);

/// BFS repair: invalidates exactly the vertices whose level lost its
/// last supporting in-arc (cascading through tight out-edges in
/// old-level order), then re-relaxes from the intact boundary plus the
/// inserted arcs to the unique fixed point.
std::vector<VertexId> refresh_bfs_levels(const Engine& eng, VertexId source,
                                         std::vector<VertexId> level,
                                         const EdgeDelta& delta);

/// Bellman-Ford repair, same two-phase scheme over the synthetic
/// edge_weight(u, v) weights. Weights are a pure function of snapshot
/// ids, so this is only sound when the permutation did not change across
/// the publish (AlgorithmSpec::refresh_needs_stable_perm).
std::vector<double> refresh_bf_distances(const Engine& eng, VertexId source,
                                         std::vector<double> dist,
                                         const EdgeDelta& delta);

}  // namespace vebo::algo
