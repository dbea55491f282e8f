// StreamSession: the streaming driver that interleaves edge-update batches
// with algorithm queries — the paper-faithful way to show VEBO's static
// scheduling staying competitive while the graph mutates.
//
// Each session owns the mutable DeltaGraph, the drift-checking VEBO
// maintainer, and a cached query context (reordered snapshot + Engine).
// `apply` ingests a batch, folds its degree deltas into the maintainer,
// and rebalances if the drift bounds are exceeded. `query` runs any
// registry algorithm (BFS/CC/PR/...) over the current version: the first
// query after a mutation builds a snapshot relabelled by the maintained
// VEBO permutation and rebinds the engine (keeping its edge_map
// scratch); subsequent queries reuse the cached context untouched.
//
// A snapshot takes one of two byte-identical paths. While the ordering
// holds — no rebalance and no vertex growth since the previous snapshot
// — the session patches the previous snapshot with the net arc flips
// applied since (stream::patch_rows: unchanged rows copied in blocks,
// changed rows merged), serially in O(n + m) sequential copies plus
// O(flips log flips). The first snapshot, any snapshot after a
// rebalance, growth or compaction, and one whose net flips outnumbered
// the live edges take the full DeltaGraph::snapshot(perm) relabel
// instead.
//
// A session is single-writer: apply/query/snapshot must come from one
// thread. The serving subsystem's writer thread owns a session and hands
// versioned snapshots to concurrent readers through serve::SnapshotStore
// (see shared_snapshot(), which exists for that publication path — the
// shared_ptr keeps a published graph alive after the session moves on to
// newer versions).
//
// Thread-safety annotations (support/annotated_mutex.hpp): none, on
// purpose. The class holds no lock because the single-writer contract
// above means there is nothing to guard — every member is confined to
// the owning thread, and cross-thread publication happens through
// SnapshotStore's annotated leaf mutex. Adding a Mutex here would
// launder a contract violation into a slow correct-looking program
// instead of a TSan report.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "algorithms/registry.hpp"
#include "framework/engine.hpp"
#include "obs/metrics.hpp"
#include "stream/delta_graph.hpp"
#include "stream/rebalance.hpp"

namespace vebo::stream {

struct SessionOptions {
  /// System model queries run under (Ligra skips the partitioning).
  SystemModel model = SystemModel::Polymer;
  RebalanceOptions rebalance;
  /// Fold delta blocks into a fresh base once pending deltas exceed this
  /// fraction of the live edge count (0 disables auto-compaction).
  double compact_fraction = 0.5;
  /// Optional metrics plane: when set, the session registers one
  /// collector exposing SessionStats and the maintainer's
  /// drift/rebalance counters. The registry must outlive the session.
  /// A session is single-writer and its counters are unsynchronized:
  /// scrape from the writer thread, or while it is quiescent.
  obs::MetricsRegistry* metrics = nullptr;
};

struct SessionStats {
  std::uint64_t batches = 0;
  EdgeId inserted = 0;
  EdgeId removed = 0;
  std::uint64_t queries = 0;
  std::uint64_t snapshots = 0;    ///< snapshot+reorder rebuilds
  /// Of those, the ones patched from the previous snapshot.
  std::uint64_t snapshots_patched = 0;
  std::uint64_t compactions = 0;  ///< DeltaGraph base rebuilds
};

class StreamSession {
 public:
  explicit StreamSession(const Graph& initial, SessionOptions opts = {});

  /// Applies one batch and maintains the ordering. Returns what changed
  /// plus the rebalance action taken.
  struct BatchOutcome {
    ApplyResult applied;
    RebalanceAction rebalance = RebalanceAction::None;
  };
  BatchOutcome apply(std::span<const EdgeUpdate> batch);

  /// Runs a registry algorithm (code per Table II: "BFS", "CC", "PR", ...)
  /// on the current graph version; `source` is in original vertex ids.
  /// Returns the spec's checksum fold of its payload under default
  /// params, byte-identical to the pre-protocol values.
  double query(const std::string& algo_code, VertexId source = 0);

  /// Typed query protocol (algorithms/query.hpp): validates `params`
  /// against the algorithm's ParamSchema (vebo::Error on unknown or
  /// ill-typed entries), runs on the current version, and returns the
  /// payload translated back to original vertex ids. "source" params are
  /// given in original ids too.
  algo::QueryPayload query_typed(const std::string& algo_code,
                                 const algo::QueryParams& params = {});

  /// Reordered snapshot of the current version (built lazily).
  const Graph& snapshot();

  /// Shared ownership of the current reordered snapshot (built lazily).
  /// The pointer stays valid after further apply() calls replace the
  /// session's cache — this is the publication hook for
  /// serve::SnapshotStore (which mints the epoch versions itself).
  std::shared_ptr<const Graph> shared_snapshot();

  /// Position of original vertex v in the maintained ordering.
  VertexId position_of(VertexId v) const {
    return maintainer_.ordering().perm[v];
  }

  const DeltaGraph& delta() const { return delta_; }
  const VeboMaintainer& maintainer() const { return maintainer_; }
  const SessionStats& stats() const { return stats_; }

  /// Arcs whose liveness changed since the last drain_delta(), net of
  /// cancellation (insert then remove of the same arc nets to nothing —
  /// same set semantics as DeltaGraph::apply_batch). Original id space.
  std::size_t pending_delta_edges() const { return pending_delta_.size(); }

  /// Hands over the accumulated net delta (sorted by (src, dst), split
  /// into inserted/removed, original ids) and resets the accumulator.
  /// serve::GraphService::publish_session feeds this to the refresh-on-
  /// publish cache path.
  algo::EdgeDelta drain_delta();

 private:
  /// Net per-arc liveness change, keyed by (src << 32) | dst. Values are
  /// +1 (net became live) or -1 (net became dead); arcs that net to zero
  /// are erased on the spot, so the map only ever holds genuine changes.
  using NetFlips = std::unordered_map<std::uint64_t, std::int8_t>;

  void refresh();
  void collect_metrics(std::vector<obs::MetricSample>& out) const;

  SessionOptions opts_;
  DeltaGraph delta_;
  VeboMaintainer maintainer_;
  /// Reordered snapshot cache; shared so shared_snapshot() publications
  /// outlive the next refresh.
  std::shared_ptr<const Graph> snap_;
  std::unique_ptr<Engine> engine_;  ///< engine bound to *snap_
  bool stale_ = true;
  /// True while *snap_ was built under the current ordering and flips_
  /// holds every net arc flip since: the next refresh may patch *snap_.
  bool patchable_ = false;
  /// Net arc flips since *snap_ was built (kept only while patchable_,
  /// and never more than the live edge count).
  NetFlips flips_;
  SessionStats stats_;
  /// Net arc flips since the last drain. Single-writer like the rest of
  /// the session — no lock (see the header comment).
  NetFlips pending_delta_;
  /// Declared last: deregisters before any other member is torn down.
  obs::MetricsRegistry::Registration metrics_reg_;
};

}  // namespace vebo::stream
