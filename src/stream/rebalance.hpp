// VeboMaintainer: keeps a VEBO ordering healthy while the graph mutates.
//
// The maintainer tracks per-partition in-edge loads against the current
// `order::Partitioning` as batches change in-degrees (the paper's balance
// objective is over in-edges of destination partitions), and measures Δ/δ
// on them with `order::imbalance`. After each batch it checks for drift:
// new vertices await placement, Δ exceeds the Δ the current ordering
// achieved by more than max(1, edge_drift·m/P), or δ exceeds the achieved
// δ by more than max(1, vertex_drift·n/P). On drift it re-runs
// `order::vebo_from_degrees` on the live in-degrees and adopts the result,
// so every ordering it holds is exactly Algorithm 2's, decreasing degree
// within each partition included. The run's own Δ/δ become the new
// baseline, even where they exceed the drift bounds (e.g. on a star).
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

enum class RebalanceAction { None, Full };

struct RebalanceStats {
  std::uint64_t batches_observed = 0;
  /// Always 0: every rebalance is a full run. perfbench/ still reports it
  /// as `stream.rebalances.incremental`.
  std::uint64_t incremental = 0;
  std::uint64_t full = 0;  ///< full re-runs (excluding construction)
  EdgeId last_edge_imbalance = 0;
  VertexId last_vertex_imbalance = 0;
};

class VeboMaintainer {
 public:
  /// Builds the initial ordering with a full VEBO run over `g`.
  explicit VeboMaintainer(const DeltaGraph& g, RebalanceOptions opts = {});

  /// Folds one applied batch into the tracked per-partition loads.
  /// O(changed vertices).
  void observe(const ApplyResult& applied);

  /// Checks drift and, on drift, re-runs VEBO in full. Returns what was
  /// done.
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

  const RebalanceStats& stats() const { return stats_; }

 private:
  /// Runs VEBO on the live in-degrees and makes its Δ/δ the baseline.
  void run_full(const DeltaGraph& g);

  RebalanceOptions opts_;
  order::VeboResult current_;
  /// Live per-partition in-edge loads (part_edges + observed deltas).
  std::vector<EdgeId> live_edges_;
  /// Imbalances the last full run achieved — the baseline the drift
  /// bounds are measured against.
  EdgeId base_edge_imb_ = 0;
  VertexId base_vertex_imb_ = 0;
  RebalanceStats stats_;
};

}  // namespace vebo::stream
