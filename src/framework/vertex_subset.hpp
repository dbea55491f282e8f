// VertexSubset: the frontier abstraction of Ligra. A subset of vertices
// kept either sparse (id list) or dense (bitset); edgemap converts
// between the two based on frontier density (the direction-reversal
// heuristic of Beamer et al. adopted by all three systems in the paper).
//
// Frontier-pipeline invariants (this repo's scan-compacted design):
//  * Conversions are parallel and keep BOTH representations valid — a
//    BFS that ping-pongs sparse/dense per round converts each way at most
//    once per frontier and never reallocates the bitset it just dropped.
//  * The sum of out-degrees (what the push/pull heuristic needs) is
//    computed once per frontier and cached; edgemap seeds the cache for
//    the frontiers it produces, so the heuristic is O(1) on hot paths.
//  * Sparse lists produced by scan compaction (from_packed) may be
//    unsorted; the subset tracks whether ascending order holds, so
//    contains() and for_each() stay correct either way.
#pragma once

#include <span>
#include <vector>

#include "graph/types.hpp"
#include "parallel/parallel_for.hpp"
#include "support/bitset.hpp"

namespace vebo {

class Graph;

/// Sentinel for "no cached edge count".
inline constexpr EdgeId kInvalidEdgeCount = static_cast<EdgeId>(-1);

class VertexSubset {
 public:
  VertexSubset() = default;

  static VertexSubset empty(VertexId n);
  static VertexSubset single(VertexId n, VertexId v);
  static VertexSubset all(VertexId n);
  /// Takes ownership of a sparse id list (sorted or not; will be sorted,
  /// deduplicated, and range-checked).
  static VertexSubset from_sparse(VertexId n, std::vector<VertexId> ids);
  /// Trusted fast path for scan-compacted output: ids must be unique and
  /// in range, but may be unsorted (`sorted` reports ascending order).
  static VertexSubset from_packed(VertexId n, std::vector<VertexId> ids,
                                  bool sorted);
  static VertexSubset from_bitset(DynamicBitset bits,
                                  const ForOptions& opts = {});
  /// Adopts the atomic bitset's word storage (no copy) and counts the
  /// members word-parallel; pass `size_hint` when the caller already
  /// knows the population to skip the count.
  static VertexSubset from_atomic(AtomicBitset&& bits,
                                  VertexId size_hint = kInvalidVertex,
                                  const ForOptions& opts = {});

  /// Number of vertices in the subset.
  VertexId size() const { return size_; }
  bool empty_set() const { return size_ == 0; }
  /// True when the subset contains every vertex of its universe — the
  /// complete-frontier case the dense kernels specialize on (no per-edge
  /// membership probe). Derived from the exact member count, so it is
  /// preserved across construction paths and conversions alike.
  bool is_complete() const { return n_ > 0 && size_ == n_; }

  /// Primary representation (what edgemap would traverse).
  bool is_dense() const { return dense_; }
  /// Representation availability: conversions retain the source rep, so
  /// both can be true at once.
  bool has_sparse() const { return have_sparse_; }
  bool has_dense() const { return have_dense_; }

  /// Membership test (works in both representations).
  bool contains(VertexId v) const;

  /// Converts in place (parallel; `opts` selects pool/schedule, e.g. the
  /// engine's vertex_loop()). The previous representation is kept —
  /// converting back is O(1).
  void to_dense(const ForOptions& opts = {});
  void to_sparse(const ForOptions& opts = {});

  /// Sparse view (requires has_sparse()).
  std::span<const VertexId> vertices() const;
  /// Dense view (requires has_dense()).
  const DynamicBitset& bits() const;

  /// Sum of out-degrees of the members — the quantity the push/pull
  /// direction heuristic needs. Computed in parallel on first use and
  /// cached (membership is immutable after construction).
  EdgeId out_edges(const Graph& g, const ForOptions& opts = {}) const;
  /// In-degree twin of out_edges() (CC's both-direction heuristic).
  EdgeId in_edges(const Graph& g, const ForOptions& opts = {}) const;
  /// Seeds the out-edge cache when the producer already knows the sum
  /// (e.g. edgemap's sparse path computes it as its offset-scan total).
  void set_out_edges(EdgeId sum) const { out_edges_ = sum; }
  /// True when out_edges() would return a cached value without a degree
  /// walk. Lets observers (the tracer) read the heuristic's input when it
  /// was actually computed without ever forcing the computation.
  bool has_out_edges() const { return out_edges_ != kInvalidEdgeCount; }

  /// Applies fn(v) for each member. Ascending id order unless the subset
  /// only holds an unsorted packed list (no dense rep to walk instead).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (have_dense_ && (!have_sparse_ || !sparse_sorted_)) {
      for (std::size_t w = 0; w < bits_.num_words(); ++w)
        detail::for_each_set_bit(bits_.word(w), w * 64, [&](std::size_t i) {
          fn(static_cast<VertexId>(i));
        });
    } else {
      for (VertexId v : sparse_) fn(v);
    }
  }

 private:
  VertexId n_ = 0;
  VertexId size_ = 0;
  bool dense_ = false;         // primary representation
  bool have_sparse_ = true;    // sparse_ matches the membership
  bool have_dense_ = false;    // bits_ matches the membership
  bool sparse_sorted_ = true;  // sparse_ is ascending
  std::vector<VertexId> sparse_;
  DynamicBitset bits_;
  mutable EdgeId out_edges_ = kInvalidEdgeCount;  // cached degree sums
  mutable EdgeId in_edges_ = kInvalidEdgeCount;
};

}  // namespace vebo
