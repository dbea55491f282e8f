// Compressed Sparse Row adjacency structure.
//
// A Csr groups edges by one endpoint: grouped by source it is the classic
// CSR (out-edges), grouped by destination it is the CSC (in-edges) that
// the paper's destination-partitioning operates on.
#pragma once

#include <span>
#include <vector>

#include "graph/types.hpp"
#include "support/error.hpp"

namespace vebo {

class Csr {
 public:
  Csr() = default;

  /// Builds directly from rows: offsets has n+1 entries, neighbors has
  /// offsets[n] entries.
  Csr(std::vector<EdgeId> offsets, std::vector<VertexId> neighbors);

  /// The counting-transpose kernel every Graph is built with. Row r of
  /// the result has `sizes[r]` entries; `fill(put)` supplies them by
  /// calling put(r, value) once per entry, and each row keeps its put
  /// order. A fill that scans its source rows in ascending order and
  /// puts the source row as the value therefore yields sorted rows
  /// without a comparison sort. Runs serially on the calling thread.
  /// `sizes` that disagree with the fill throw instead of writing out of
  /// bounds: every put is bounds-checked and every row must end full.
  template <typename Fill>
  static Csr scatter(std::span<const EdgeId> sizes, Fill&& fill);

  /// Row c of the transpose lists every row r whose neighbors contain c,
  /// ascending (one scatter over the rows in order).
  Csr transpose() const;

  VertexId num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }
  EdgeId num_edges() const { return offsets_.empty() ? 0 : offsets_.back(); }

  EdgeId degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  std::span<const EdgeId> offsets() const { return offsets_; }
  std::span<const VertexId> neighbor_array() const { return neighbors_; }

  /// Structural validity: offsets monotone, endpoints in range, rows sorted.
  bool valid() const;

  friend bool operator==(const Csr&, const Csr&) = default;

 private:
  std::vector<EdgeId> offsets_;      // n+1
  std::vector<VertexId> neighbors_;  // m
};

template <typename Fill>
Csr Csr::scatter(std::span<const EdgeId> sizes, Fill&& fill) {
  const std::size_t n = sizes.size();
  std::vector<EdgeId> offsets(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) offsets[r + 1] = offsets[r] + sizes[r];
  const EdgeId total = offsets[n];
  std::vector<VertexId> values(total);
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  fill([&](VertexId r, VertexId value) {
    VEBO_CHECK(r < n && cursor[r] < total, "scatter: row overflow");
    values[cursor[r]++] = value;
  });
  for (std::size_t r = 0; r < n; ++r)
    VEBO_CHECK(cursor[r] == offsets[r + 1], "scatter: row size mismatch");
  return Csr(std::move(offsets), std::move(values));
}

}  // namespace vebo
