// Sparse matrix-vector multiplication (1 iteration, dense): y = A^T x
// where A is the adjacency matrix and values are derived from a
// deterministic per-edge weight. Edge-oriented with a fully dense
// frontier — the purest measure of per-partition edge throughput.
#pragma once

#include <cstdint>

#include "algorithms/query.hpp"
#include "support/prng.hpp"

namespace vebo::algo {

/// Bounds of edge_weight. BF's one-thread bucket pass sizes its buckets
/// and its ring from them and keeps one label per bucket, so it relies on
/// every weight being a whole number in [kMinEdgeWeight, kMaxEdgeWeight].
inline constexpr double kMinEdgeWeight = 1.0;
inline constexpr double kMaxEdgeWeight = 32.0;

/// Deterministic whole-number edge weight in [kMinEdgeWeight,
/// kMaxEdgeWeight], a pure function of endpoint ids. Inline: BF's relax,
/// SPMV's fold and the BF repair call it per edge.
inline double edge_weight(VertexId u, VertexId v) {
  constexpr auto kSpan =
      static_cast<std::uint64_t>(kMaxEdgeWeight - kMinEdgeWeight) + 1;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
  return kMinEdgeWeight + static_cast<double>(mix64(key) % kSpan);
}

/// No params. Payload: y[v] = sum over in-edges (u, v) of
/// edge_weight(u, v) * x[u], for x = 1/n everywhere. Checksum fold =
/// block_sum of y.
AlgorithmSpec spmv_spec();

}  // namespace vebo::algo
