// Sparse matrix-vector multiplication (1 iteration, dense): y = A^T x
// where A is the adjacency matrix and values are derived from a
// deterministic per-edge weight. Edge-oriented with a fully dense
// frontier — the purest measure of per-partition edge throughput.
#pragma once

#include <cstdint>

#include "algorithms/query.hpp"
#include "support/prng.hpp"

namespace vebo::algo {

/// Bounds of edge_weight. BF's one-thread bucket pass keeps one
/// whole-number label per bucket, sizes its ring from kMaxEdgeWeight and
/// needs kMinEdgeWeight >= 1, so that a relaxation leaves its bucket. Its
/// labels are 32-bit: at kMaxEdgeWeight = 32 it takes graphs of up to
/// 2^27 vertices, the most whose simple paths' sums stay below 2^32 - 1.
/// Two static_asserts in bellman_ford.cpp tie that bound to
/// kMaxEdgeWeight, so changing the weight means moving the bound.
inline constexpr double kMinEdgeWeight = 1.0;
inline constexpr double kMaxEdgeWeight = 32.0;

/// The deterministic edge weight: a whole number in [kMinEdgeWeight,
/// kMaxEdgeWeight], a pure function of endpoint ids. BF's bucket pass sums
/// it into integer labels; every other caller reads edge_weight.
inline std::uint32_t edge_weight_int(VertexId u, VertexId v) {
  constexpr auto kMin = static_cast<std::uint32_t>(kMinEdgeWeight);
  constexpr auto kSpan = static_cast<std::uint32_t>(kMaxEdgeWeight) - kMin + 1;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
  return kMin + static_cast<std::uint32_t>(mix64(key) % kSpan);
}

/// edge_weight_int as a double. Inline: BF's relax, SPMV's fold and the BF
/// repair call it per edge.
inline double edge_weight(VertexId u, VertexId v) {
  return static_cast<double>(edge_weight_int(u, v));
}

/// No params. Payload: y[v] = sum over in-edges (u, v) of
/// edge_weight(u, v) * x[u], for x = 1/n everywhere. Checksum fold =
/// block_sum of y.
AlgorithmSpec spmv_spec();

}  // namespace vebo::algo
