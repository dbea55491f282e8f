// DeltaGraph: the mutable adjacency layer of the streaming subsystem.
//
// Layout follows the LSGraph/LiveGraph-style batched-CSR-delta shape, in
// one direction: a frozen base CSR plus per-source delta blocks. Each
// block holds two sorted lists — `adds` (live edges not in the base) and
// `dels` (tombstones over base edges) — so the live out-row of u is
//   (base_row(u) \ dels(u)) ∪ adds(u),
// with the invariants adds ∩ base = ∅, dels ⊆ base, adds ∩ dels = ∅.
// The in-side keeps one fact, the live in-degree of every vertex, which
// is all VEBO places vertices by (Algorithm 2); it is folded from the
// same per-update effects that rebuild the out-rows.
//
// `apply_batch` ingests a span of EdgeUpdates in O(B log B) for the batch
// dedup sort plus O(touched-source delta blocks) for the parallel
// per-source merges — it never rebuilds the base. `snapshot(perm)` turns
// base+deltas into an immutable, relabelled `Graph` (CSR + CSC) in
// O(n + m) without a comparison sort (permute_rows: one scatter of the
// live out-rows, one transpose), so every engine and algorithm runs
// unchanged on any version of the graph. While the permutation holds,
// `patch_rows` gives the same bytes from the previous snapshot instead:
// it copies the unchanged rows in blocks and merges the net arc flips
// into the changed ones (StreamSession picks the path and keeps the
// flips).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "stream/update.hpp"

namespace vebo::stream {

class DeltaGraph {
 public:
  /// Starts from an immutable base graph (copies its CSR, reads its
  /// in-degrees).
  explicit DeltaGraph(const Graph& base);
  /// Starts empty with n vertices.
  explicit DeltaGraph(VertexId n, bool directed = true);

  VertexId num_vertices() const { return n_; }
  EdgeId num_edges() const { return m_; }
  bool directed() const { return directed_; }

  EdgeId out_degree(VertexId v) const { return out_deg_[v]; }
  EdgeId in_degree(VertexId v) const { return in_deg_[v]; }
  /// Live in-degree of every vertex (the VEBO maintainer's input).
  const std::vector<EdgeId>& in_degrees() const { return in_deg_; }
  /// Live out-degree of every vertex.
  const std::vector<EdgeId>& out_degrees() const { return out_deg_; }

  /// True iff (u, v) is live (base minus tombstones plus additions).
  bool has_edge(VertexId u, VertexId v) const;

  /// Pending delta volume: adds + tombstones over all delta blocks.
  /// Grows with churn until `compact()` folds deltas into a new base.
  EdgeId delta_edges() const { return delta_edges_; }

  /// Applies one batch. Set semantics; within the batch the last update
  /// to a (src, dst) pair wins. Endpoints beyond the current vertex count
  /// grow the graph. On an undirected graph each update is mirrored to
  /// both orientations (matching the `symmetrize` invariant), and the
  /// returned counts include both. Returns what actually changed —
  /// including the per-vertex in-degree deltas the rebalancer consumes,
  /// in ascending destination order with no zero entries.
  ApplyResult apply_batch(std::span<const EdgeUpdate> batch);

  /// The live graph relabelled by `perm` (new_id = perm[old_id]) as an
  /// immutable Graph (CSR and CSC): byte-identical to
  /// permute(Graph::from_edges(live edges), perm), but each live out-row
  /// is read once and no original-id graph is built.
  Graph snapshot(std::span<const VertexId> perm) const;
  /// The live graph in original ids: snapshot(identity).
  Graph snapshot() const;

  /// Folds all delta blocks into a fresh base CSR (parallel per-source
  /// merges; equivalent to rebuilding from `snapshot()`) and clears every
  /// block. Call when `delta_edges()` grows past the point where merge
  /// overhead hurts traversal.
  void compact();

  /// Calls `fn(w)` for every live out-neighbor w of v, ascending.
  template <typename Fn>
  void for_each_out(VertexId v, Fn&& fn) const {
    merge_row(base_row(v), out_blocks_[v].adds, out_blocks_[v].dels, fn);
  }

 private:
  /// Sorted delta lists for one source.
  struct Block {
    std::vector<VertexId> adds;
    std::vector<VertexId> dels;
  };

  std::span<const VertexId> base_row(VertexId v) const {
    return v < base_n_ ? base_out_.neighbors(v) : std::span<const VertexId>{};
  }

  template <typename Fn>
  static void merge_row(std::span<const VertexId> base,
                        const std::vector<VertexId>& adds,
                        const std::vector<VertexId>& dels, Fn&& fn) {
    std::size_t ib = 0, ia = 0, id = 0;
    while (ib < base.size() || ia < adds.size()) {
      const bool take_base =
          ia >= adds.size() || (ib < base.size() && base[ib] < adds[ia]);
      const VertexId w = take_base ? base[ib] : adds[ia];
      if (take_base) {
        ++ib;
        while (id < dels.size() && dels[id] < w) ++id;
        if (id < dels.size() && dels[id] == w) {
          ++id;
          continue;  // tombstoned
        }
      } else {
        ++ia;
      }
      fn(w);
    }
  }

  void grow_to(VertexId n);

  VertexId n_ = 0;
  EdgeId m_ = 0;
  bool directed_ = true;
  VertexId base_n_ = 0;  ///< vertex count the base CSR was built for
  Csr base_out_;
  std::vector<Block> out_blocks_;  ///< indexed by source
  std::vector<EdgeId> out_deg_;
  std::vector<EdgeId> in_deg_;
  EdgeId delta_edges_ = 0;
};

/// One arc's net liveness change in original ids since some version:
/// +1 the arc became live, -1 it became dead.
struct ArcFlip {
  Edge arc;
  std::int8_t sign;
};

/// The row-patch kernel: `prev` — one side of snapshot(perm) at an
/// earlier version, rows keyed by the arc's source, or by its
/// destination when `by_dst` — updated by `flips`, the net flip of every
/// arc whose liveness changed since that version (each arc once). The
/// flips are mapped through `perm` and sorted; each run of unchanged
/// rows is copied in one block, and each changed row is merged with its
/// flips. Byte-identical to the same side of snapshot(perm) at the
/// current version. Only changed rows are checked row by row: a sign
/// other than -1 or +1, an arc listed twice, a removed value absent from
/// its row, or a changed row whose size disagrees with `degrees` (live
/// degrees on this side, original ids) throws, and every write into a
/// changed row is bounds-checked. Unchanged rows are copied as they
/// were, so the caller checks the total edge count. Serial on the
/// calling thread.
Csr patch_rows(const Csr& prev, std::span<const ArcFlip> flips,
               std::span<const VertexId> perm, bool by_dst,
               std::span<const EdgeId> degrees);

}  // namespace vebo::stream
