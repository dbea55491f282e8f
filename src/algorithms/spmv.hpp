// Sparse matrix-vector multiplication (1 iteration, dense): y = A^T x
// where A is the adjacency matrix and values are derived from a
// deterministic per-edge weight. Edge-oriented with a fully dense
// frontier — the purest measure of per-partition edge throughput.
#pragma once

#include <cstdint>
#include <vector>

#include "algorithms/query.hpp"
#include "framework/engine.hpp"
#include "support/prng.hpp"

namespace vebo::algo {

/// Deterministic edge weight in [1, 32], a pure function of endpoint ids.
/// Inline: BF's relax, SPMV's fold and the BF repair call it per edge.
inline double edge_weight(VertexId u, VertexId v) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
  return 1.0 + static_cast<double>(mix64(key) % 32);
}

struct SpmvResult {
  std::vector<double> y;
  double checksum = 0.0;
};

/// y[v] = sum over in-edges (u, v) of weight(u, v) * x[u].
SpmvResult spmv(const Engine& eng, const std::vector<double>& x);

/// Convenience: x = 1/n everywhere.
SpmvResult spmv(const Engine& eng);

/// Typed entry point. No params (x = 1/n). Payload: the per-vertex
/// product vector y. Checksum fold = block_sum of y, the same
/// deterministic block fold as SpmvResult::checksum.
AlgorithmSpec spmv_spec();

}  // namespace vebo::algo
