#include "stream/rebalance.hpp"

#include <algorithm>

#include "obs/recorder.hpp"
#include "support/error.hpp"

namespace vebo::stream {

namespace {

/// Past this dirty-vertex fraction, skip refinement and re-run full VEBO:
/// the incremental path no longer saves work.
constexpr double kFullRebuildFraction = 0.25;

}  // namespace

VeboMaintainer::VeboMaintainer(const DeltaGraph& g, RebalanceOptions opts)
    : opts_(opts) {
  VEBO_CHECK(opts_.partitions >= 1, "rebalance: partitions must be >= 1");
  VEBO_CHECK(g.num_vertices() > 0, "rebalance: empty graph");
  run_full(g);
  // Construction is not a rebalance event.
  stats_.full = 0;
}

EdgeId VeboMaintainer::edge_imbalance() const {
  return order::imbalance(live_edges_);
}

VertexId VeboMaintainer::vertex_imbalance() const {
  return current_.vertex_imbalance();
}

EdgeId VeboMaintainer::edge_bound(const DeltaGraph& g) const {
  const double avg =
      static_cast<double>(g.num_edges()) / opts_.partitions;
  return std::max<EdgeId>(1, static_cast<EdgeId>(opts_.edge_drift * avg));
}

VertexId VeboMaintainer::vertex_bound(const DeltaGraph& g) const {
  const double avg =
      static_cast<double>(g.num_vertices()) / opts_.partitions;
  return std::max<VertexId>(
      1, static_cast<VertexId>(opts_.vertex_drift * avg));
}

void VeboMaintainer::observe(const ApplyResult& applied) {
  ++stats_.batches_observed;
  const VertexId placed_n = static_cast<VertexId>(current_.perm.size());
  for (const auto& [v, d] : applied.in_degree_delta) {
    if (v >= placed_n) continue;  // new vertex: placed at next rebalance
    const VertexId p = current_.partitioning.owner(current_.perm[v]);
    live_edges_[p] = static_cast<EdgeId>(
        static_cast<std::int64_t>(live_edges_[p]) + d);
    // adopt() sizes dirty_mark_ to the full vertex count and v < placed_n.
    VEBO_ASSERT(v < dirty_mark_.size());
    if (!dirty_mark_[v]) {
      dirty_mark_[v] = true;
      dirty_.push_back(v);
    }
  }
}

bool VeboMaintainer::drifted(const DeltaGraph& g) const {
  if (g.num_vertices() > current_.perm.size()) return true;
  return edge_imbalance() > base_edge_imb_ + edge_bound(g) ||
         vertex_imbalance() > base_vertex_imb_ + vertex_bound(g);
}

void VeboMaintainer::adopt(order::VeboResult next, const DeltaGraph& g) {
  current_ = std::move(next);
  live_edges_ = current_.part_edges;
  dirty_.clear();
  dirty_mark_.assign(g.num_vertices(), false);
  base_edge_imb_ = current_.edge_imbalance();
  base_vertex_imb_ = current_.vertex_imbalance();
  stats_.last_edge_imbalance = base_edge_imb_;
  stats_.last_vertex_imbalance = base_vertex_imb_;
}

void VeboMaintainer::run_full(const DeltaGraph& g) {
  adopt(order::vebo_from_degrees(g.in_degrees(), opts_.partitions), g);
  ++stats_.full;
}

RebalanceAction VeboMaintainer::maybe_rebalance(const DeltaGraph& g) {
  // Stream-path span: the drift check plus whatever maintenance it
  // triggers. a = action taken, b = dirty vertices pending at entry.
  obs::StageScope span(obs::SpanKind::VeboRefine);
  const std::uint64_t dirty_before = dirty_.size();
  const RebalanceAction action = [&]() -> RebalanceAction {
    if (!drifted(g)) {
      stats_.last_edge_imbalance = edge_imbalance();
      stats_.last_vertex_imbalance = vertex_imbalance();
      return RebalanceAction::None;
    }

    const VertexId n = g.num_vertices();
    const std::size_t new_vertices =
        n > current_.perm.size() ? n - current_.perm.size() : 0;
    const double dirty_fraction =
        static_cast<double>(dirty_.size() + new_vertices) / n;
    if (dirty_fraction > kFullRebuildFraction) {
      run_full(g);
      return RebalanceAction::Full;
    }

    // Accept the refinement when it restores balance to the absolute bound
    // or to the quality the previous (full-quality) ordering achieved —
    // whichever is looser. On skewed graphs where a hub makes the absolute
    // bound unattainable, matching the previous baseline is the achievable
    // target; anything worse falls through to the full re-run.
    order::VeboResult refined =
        order::vebo_refine(g.in_degrees(), current_, dirty_);
    if (refined.edge_imbalance() <= std::max(edge_bound(g), base_edge_imb_) &&
        refined.vertex_imbalance() <=
            std::max(vertex_bound(g), base_vertex_imb_)) {
      adopt(std::move(refined), g);
      ++stats_.incremental;
      return RebalanceAction::Incremental;
    }

    // Refinement could not restore the bounds: past the drift bound, fall
    // back to the full Algorithm-2 re-run.
    run_full(g);
    return RebalanceAction::Full;
  }();
  if (span.live()) {
    span.span().a = static_cast<std::uint64_t>(action);
    span.span().b = dirty_before;
  }
  return action;
}

}  // namespace vebo::stream
