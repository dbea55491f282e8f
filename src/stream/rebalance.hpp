// VeboMaintainer: keeps a VEBO ordering healthy while the graph mutates.
//
// The maintainer tracks per-partition in-edge loads against the current
// `order::Partitioning` as batches change in-degrees (the paper's balance
// objective is over in-edges of destination partitions), and measures Δ/δ
// on them with `order::imbalance`. The rule it applies after each batch:
//  - Drift: rebalance when new vertices await placement, when Δ exceeds
//    the Δ the last adopted ordering achieved by more than
//    max(1, edge_drift·m/P), or when δ exceeds the achieved δ by more than
//    max(1, vertex_drift·n/P).
//  - Past a 25% dirty fraction (changed plus new vertices over n), re-run
//    `order::vebo_from_degrees` in full.
//  - Otherwise run `order::vebo_refine`, which re-places only the dirty
//    vertices, and adopt it when its Δ and δ are each within the looser of
//    the drift bound and the achieved baseline; else re-run in full.
// A full re-run adopts whatever balance Algorithm 2 achieves, which may
// exceed the drift bounds (e.g. on a star).
//
// Thread-safety annotations (support/annotated_mutex.hpp): none, on
// purpose — a maintainer is owned by a single StreamSession and inherits
// its single-writer contract; there is no shared state to put a
// capability on.
#pragma once

#include <cstdint>
#include <vector>

#include "order/vebo.hpp"
#include "stream/delta_graph.hpp"
#include "stream/update.hpp"

namespace vebo::stream {

struct RebalanceOptions {
  /// Number of VEBO partitions maintained (Polymer's default NUMA count).
  VertexId partitions = 4;
  /// Rebalance when Δ (max-min partition in-edges) has drifted more than
  /// `edge_drift * m / P` (at least 1) past the Δ the last rebalance
  /// achieved. Relative-to-achieved, not absolute: a graph whose degree
  /// distribution makes a small Δ unattainable (one hub holding more
  /// than a bound's worth of in-edges) must not rebalance every batch.
  double edge_drift = 0.10;
  /// Same for δ (max-min partition vertices) with `vertex_drift * n / P`.
  double vertex_drift = 0.10;
};

enum class RebalanceAction { None, Incremental, Full };

struct RebalanceStats {
  std::uint64_t batches_observed = 0;
  std::uint64_t incremental = 0;  ///< refinements adopted
  std::uint64_t full = 0;         ///< full re-runs (excluding construction)
  EdgeId last_edge_imbalance = 0;
  VertexId last_vertex_imbalance = 0;
};

class VeboMaintainer {
 public:
  /// Builds the initial ordering with a full VEBO run over `g`.
  explicit VeboMaintainer(const DeltaGraph& g, RebalanceOptions opts = {});

  /// Folds one applied batch into the tracked per-partition loads and the
  /// dirty set. O(changed vertices).
  void observe(const ApplyResult& applied);

  /// Checks drift and rebalances if needed. Returns what was done.
  RebalanceAction maybe_rebalance(const DeltaGraph& g);

  /// True iff the tracked loads have drifted more than a bound past the
  /// last rebalance's achieved imbalance (or new vertices await
  /// placement).
  bool drifted(const DeltaGraph& g) const;

  /// Current ordering; `ordering().perm` maps graph ids to positions and
  /// `partitioning()` is contiguous in the reordered id space.
  const order::VeboResult& ordering() const { return current_; }
  const order::Partitioning& partitioning() const {
    return current_.partitioning;
  }

  /// Tracked imbalances (also refreshed into stats by maybe_rebalance).
  EdgeId edge_imbalance() const;
  VertexId vertex_imbalance() const;
  EdgeId edge_bound(const DeltaGraph& g) const;
  VertexId vertex_bound(const DeltaGraph& g) const;

  std::size_t dirty_count() const { return dirty_.size(); }
  const RebalanceStats& stats() const { return stats_; }

 private:
  void adopt(order::VeboResult next, const DeltaGraph& g);
  void run_full(const DeltaGraph& g);

  RebalanceOptions opts_;
  order::VeboResult current_;
  /// Live per-partition in-edge loads (part_edges + observed deltas).
  std::vector<EdgeId> live_edges_;
  /// Imbalances achieved by the last adopted (re)balance — the baseline
  /// the drift bounds are measured against.
  EdgeId base_edge_imb_ = 0;
  VertexId base_vertex_imb_ = 0;
  /// Vertices (placed ones) whose in-degree changed since the last
  /// rebalance.
  std::vector<VertexId> dirty_;
  std::vector<bool> dirty_mark_;
  RebalanceStats stats_;
};

}  // namespace vebo::stream
