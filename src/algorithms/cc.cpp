#include "algorithms/cc.hpp"

#include <atomic>

#include "algorithms/incremental.hpp"
#include "framework/edgemap.hpp"

namespace vebo::algo {

namespace {

/// Atomic min on a VertexId; returns true if the stored value decreased.
bool atomic_write_min(std::atomic<VertexId>& slot, VertexId value) {
  VertexId cur = slot.load(std::memory_order_relaxed);
  while (value < cur) {
    if (slot.compare_exchange_weak(cur, value, std::memory_order_relaxed))
      return true;
  }
  return false;
}

/// Component-minimum labels. No params.
QueryPayload run_cc(const Engine& eng, const QueryParams&) {
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();

  std::vector<std::atomic<VertexId>> label(n);
  for (VertexId v = 0; v < n; ++v)
    label[v].store(v, std::memory_order_relaxed);

  // Label propagation over *both* edge directions until fixpoint. The
  // frontier holds vertices whose label changed last round.
  VertexSubset frontier = VertexSubset::all(n);
  int rounds = 0;
  while (!frontier.empty_set()) {
    // Superstep boundary: CC's rounds bypass edge_map, so poll here.
    eng.poll_cancellation();
    obs::SpanScope iter(obs::SpanKind::Iteration);
    if (iter.live()) {
      iter.span().a = static_cast<std::uint64_t>(rounds);
      iter.span().b = frontier.size();
    }
    AtomicBitset changed(n);
    // Density heuristic mirrors edgemap: sparse push vs dense pull. CC
    // propagates over both directions, so both cached degree sums count.
    const EdgeId work = frontier.size() +
                        frontier.out_edges(g, eng.vertex_loop()) +
                        frontier.in_edges(g, eng.vertex_loop());
    if (work > eng.dense_threshold()) {
      frontier.to_dense(eng.vertex_loop());
      const DynamicBitset& fbits = frontier.bits();
      // edge_map's dense scheduler: partitions on Polymer/GraphGrind,
      // edge-balanced chunks on Ligra.
      for_dense_ranges(eng, [&](VertexId lo, VertexId hi) {
        for (VertexId v = lo; v < hi; ++v) {
          VertexId best = label[v].load(std::memory_order_relaxed);
          bool saw_active = false;
          for (VertexId u : g.in_neighbors(v)) {
            if (!fbits.get(u)) continue;
            saw_active = true;
            best = std::min(best, label[u].load(std::memory_order_relaxed));
          }
          for (VertexId u : g.out_neighbors(v)) {
            if (!fbits.get(u)) continue;
            saw_active = true;
            best = std::min(best, label[u].load(std::memory_order_relaxed));
          }
          if (saw_active && atomic_write_min(label[v], best)) changed.set(v);
        }
      });
    } else {
      frontier.to_sparse(eng.vertex_loop());
      auto ids = frontier.vertices();
      parallel_for(
          0, ids.size(),
          [&](std::size_t i) {
            const VertexId u = ids[i];
            const VertexId lu = label[u].load(std::memory_order_relaxed);
            for (VertexId v : g.out_neighbors(u))
              if (atomic_write_min(label[v], lu)) changed.set(v);
            for (VertexId v : g.in_neighbors(u))
              if (atomic_write_min(label[v], lu)) changed.set(v);
          },
          eng.vertex_loop());
    }
    // Adopt the changed-bit words directly; the next round's heuristic
    // and conversions are word-parallel from here.
    frontier = VertexSubset::from_atomic(std::move(changed), kInvalidVertex,
                                         eng.vertex_loop());
    ++rounds;
  }

  std::vector<VertexId> out(n);
  parallel_for(
      0, n,
      [&](std::size_t v) { out[v] = label[v].load(std::memory_order_relaxed); },
      eng.vertex_loop());
  return QueryPayload::vertex_ids(std::move(out),
                                  /*values_are_vertex_ids=*/true);
}

}  // namespace

AlgorithmSpec cc_spec() {
  AlgorithmSpec s;
  s.code = "CC";
  s.run = run_cc;
  s.refresh = [](const Engine& eng, const QueryParams& p,
                 const QueryPayload& prev, const EdgeDelta& delta) {
    const VertexId n = eng.graph().num_vertices();
    if (prev.kind() != PayloadKind::VertexIds ||
        !prev.values_are_vertex_ids() || prev.ids().size() != n ||
        !refresh_worthwhile(eng, delta, kRefreshRunFallbackFraction))
      return run_cc(eng, p);
    // Bit-exact: union-find over the delta plus the affected components,
    // relabeled to the component-minimum id label propagation converges
    // to.
    return QueryPayload::vertex_ids(
        refresh_components(eng, prev.ids(), delta),
        /*values_are_vertex_ids=*/true);
  };
  s.checksum = [](const QueryPayload& p) {
    // Labels are the component-minimum vertex id, so each component has
    // exactly one fixed point label[v] == v — this counts components.
    // Translation maps index and value through the same bijection, so
    // the fold is permutation-stable.
    const std::vector<VertexId>& label = p.ids();
    double components = 0;
    for (VertexId v = 0; v < label.size(); ++v)
      if (label[v] == v) components += 1;
    return components;
  };
  return s;
}

}  // namespace vebo::algo
