// Serial, sort-based graph construction: the oracle that the counting-
// transpose kernel (Csr::scatter / Csr::transpose behind
// Graph::from_edges, permute and DeltaGraph::snapshot) is checked
// against. It shares no code with the kernel: edges are comparison-sorted
// and rows are cut from the sorted runs. Also the relabelling oracles the
// ordering and serving suites check reordered graphs with, the serial
// belief-propagation oracle the BP spec is checked against, and Algorithm
// 2 (VEBO) by definition, which order::vebo is checked against. The
// suites read a Graph's edges as a list through `walked_edges`.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/permute.hpp"
#include "support/prng.hpp"

namespace vebo {

/// The graph's edges as for_each_edge walks them, (src, dst) ascending.
inline std::vector<Edge> walked_edges(const Graph& g) {
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  g.for_each_edge([&](VertexId u, VertexId v) { edges.push_back({u, v}); });
  return edges;
}

}  // namespace vebo

namespace vebo::oracle {

struct ReferenceGraph {
  Csr out;                ///< rows = sources, sorted
  Csr in;                 ///< rows = destinations, sorted
  std::vector<Edge> coo;  ///< sorted by (src, dst)
};

/// Rows keyed by `key(e)` holding `value(e)`, cut from `edges`, which is
/// sorted by (key, value).
template <typename Key, typename Value>
Csr reference_rows(VertexId n, const std::vector<Edge>& edges, Key key,
                   Value value) {
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<VertexId> values;
  values.reserve(edges.size());
  for (const Edge& e : edges) {
    ++offsets[key(e) + 1];
    values.push_back(value(e));
  }
  for (std::size_t v = 1; v <= n; ++v) offsets[v] += offsets[v - 1];
  return Csr(std::move(offsets), std::move(values));
}

/// The graph over `edges` (a multiset), relabelled by `perm` when given.
inline ReferenceGraph reference_build(VertexId n, std::vector<Edge> edges,
                                      std::span<const VertexId> perm = {}) {
  if (!perm.empty())
    for (Edge& e : edges) e = {perm[e.src], perm[e.dst]};
  ReferenceGraph r;
  std::sort(edges.begin(), edges.end());
  r.out = reference_rows(n, edges, [](const Edge& e) { return e.src; },
                         [](const Edge& e) { return e.dst; });
  r.coo = edges;
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
  });
  r.in = reference_rows(n, edges, [](const Edge& e) { return e.dst; },
                        [](const Edge& e) { return e.src; });
  return r;
}

/// Byte equality with the reference: both CSRs, and the edge walk against
/// the sorted edge list (every edge in order, and the count).
inline void expect_same_graph(const Graph& g, const ReferenceGraph& ref) {
  ASSERT_EQ(g.num_vertices(), ref.out.num_vertices());
  ASSERT_EQ(g.num_edges(), ref.out.num_edges());
  EXPECT_EQ(g.out_csr(), ref.out);
  EXPECT_EQ(g.in_csr(), ref.in);
  EXPECT_EQ(walked_edges(g), ref.coo);
}

/// Byte equality: bit-identical doubles, not merely == (which would let
/// -0.0 pass for 0.0).
inline bool same_bytes(const std::vector<double>& a,
                       const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// BP's beliefs after `iterations` synchronous rounds, serially: prior
/// (mix64(v) % 2001 - 1000) / 1000, message coupling * tanh(belief), and
/// each destination's messages summed over its in-neighbors in ascending
/// id order, the order edge_fold pins on every model and width.
inline std::vector<double> reference_bp(const Graph& g, int iterations,
                                        double coupling = 0.5) {
  const VertexId n = g.num_vertices();
  std::vector<double> prior(n);
  for (VertexId v = 0; v < n; ++v)
    prior[v] = (static_cast<double>(mix64(v) % 2001) - 1000.0) / 1000.0;
  std::vector<double> belief = prior, msg(n);
  for (int it = 0; it < iterations; ++it) {
    for (VertexId u = 0; u < n; ++u) msg[u] = coupling * std::tanh(belief[u]);
    for (VertexId v = 0; v < n; ++v) {
      double incoming = 0.0;
      for (VertexId u : g.in_neighbors(v)) incoming += msg[u];
      belief[v] = prior[v] + incoming;
    }
  }
  return belief;
}

/// One phase-1 step of Algorithm 2: the degree d(t) placed, then Δ(t+1)
/// and ω(t+1), the max - min and the max of the partition in-edges.
struct PhaseOneStep {
  EdgeId degree;
  EdgeId imbalance;
  EdgeId max_weight;
};

struct ReferenceVebo {
  Permutation perm;
  std::vector<EdgeId> part_edges;
  std::vector<VertexId> part_vertices;
  std::vector<VertexId> boundaries;  ///< chunk p is [b[p], b[p+1])
};

/// Algorithm 2 (the exact variant) by definition, serially: vertices
/// stable-sorted by decreasing degree; each non-zero-degree vertex onto
/// the partition with the fewest in-edges, each zero-degree one onto the
/// partition with the fewest vertices, both by a linear argmin scan with
/// ties to the lowest partition id; then each partition's vertices
/// numbered contiguously in placement order. `trace`, when given,
/// receives every phase-1 step.
inline ReferenceVebo reference_vebo(
    const std::vector<EdgeId>& deg, VertexId P,
    std::vector<PhaseOneStep>* trace = nullptr) {
  const VertexId n = static_cast<VertexId>(deg.size());
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](VertexId a, VertexId b) { return deg[a] > deg[b]; });
  ReferenceVebo r;
  r.part_edges.assign(P, 0);
  r.part_vertices.assign(P, 0);
  std::vector<VertexId> assign(n);
  for (VertexId v : order) {
    VertexId best = 0;
    for (VertexId p = 1; p < P; ++p)
      if (deg[v] > 0 ? r.part_edges[p] < r.part_edges[best]
                     : r.part_vertices[p] < r.part_vertices[best])
        best = p;
    assign[v] = best;
    r.part_edges[best] += deg[v];
    ++r.part_vertices[best];
    if (trace != nullptr && deg[v] > 0) {
      const auto [lo, hi] =
          std::minmax_element(r.part_edges.begin(), r.part_edges.end());
      trace->push_back({deg[v], *hi - *lo, *hi});
    }
  }
  r.boundaries.assign(static_cast<std::size_t>(P) + 1, 0);
  for (VertexId p = 0; p < P; ++p)
    r.boundaries[p + 1] = r.boundaries[p] + r.part_vertices[p];
  std::vector<VertexId> next(r.boundaries.begin(), r.boundaries.end() - 1);
  r.perm.assign(n, 0);
  for (VertexId v : order) r.perm[v] = next[assign[v]]++;
  return r;
}

}  // namespace vebo::oracle

namespace vebo {

/// Order-independent structural fingerprint of a graph: a hash over the
/// multiset of canonicalized edges under the identity labelling. Two
/// *equal-labelled* graphs hash equal.
inline std::uint64_t structural_hash(const Graph& g) {
  // Commutative hash over edges so it is independent of edge order.
  std::uint64_t h = mix64(g.num_vertices());
  g.for_each_edge([&](VertexId u, VertexId v) {
    h += mix64((static_cast<std::uint64_t>(u) << 32) | v);
  });
  return h;
}

/// Checks that `h` equals `g` relabelled by `perm` (exact isomorphism
/// witness check, not graph-isomorphism search).
inline bool is_isomorphic_under(const Graph& g, const Graph& h,
                                std::span<const VertexId> perm) {
  if (g.num_vertices() != h.num_vertices()) return false;
  if (g.num_edges() != h.num_edges()) return false;
  if (!is_permutation(perm)) return false;
  // Oracle independent of the construction kernel: relabel g's edges and
  // sort them into the (src, dst) order h's edges are walked in.
  std::vector<Edge> relabelled;
  relabelled.reserve(g.num_edges());
  g.for_each_edge([&](VertexId u, VertexId v) {
    relabelled.push_back({perm[u], perm[v]});
  });
  std::sort(relabelled.begin(), relabelled.end());
  std::size_t i = 0;  // the edge counts agree (checked above)
  bool same = true;
  h.for_each_edge([&](VertexId u, VertexId v) {
    same = same && relabelled[i++] == Edge{u, v};
  });
  return same;
}

}  // namespace vebo
