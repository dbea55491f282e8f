#include "stream/rebalance.hpp"

#include <algorithm>

#include "obs/recorder.hpp"
#include "support/error.hpp"

namespace vebo::stream {

VeboMaintainer::VeboMaintainer(const DeltaGraph& g, RebalanceOptions opts)
    : opts_(opts) {
  VEBO_CHECK(opts_.partitions >= 1, "rebalance: partitions must be >= 1");
  VEBO_CHECK(g.num_vertices() > 0, "rebalance: empty graph");
  run_full(g);  // construction is not a rebalance event
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
  }
}

bool VeboMaintainer::drifted(const DeltaGraph& g) const {
  if (g.num_vertices() > current_.perm.size()) return true;
  return edge_imbalance() > base_edge_imb_ + edge_bound(g) ||
         vertex_imbalance() > base_vertex_imb_ + vertex_bound(g);
}

void VeboMaintainer::run_full(const DeltaGraph& g) {
  current_ = order::vebo_from_degrees(g.in_degrees(), opts_.partitions);
  live_edges_ = current_.part_edges;
  base_edge_imb_ = current_.edge_imbalance();
  base_vertex_imb_ = current_.vertex_imbalance();
  stats_.last_edge_imbalance = base_edge_imb_;
  stats_.last_vertex_imbalance = base_vertex_imb_;
}

RebalanceAction VeboMaintainer::maybe_rebalance(const DeltaGraph& g) {
  // Stream-path span: the drift check plus the full run it triggers.
  // a = 1 when the check rebalanced, b = Δ and c = δ as the check read
  // them.
  obs::StageScope span(obs::SpanKind::Rebalance);
  const bool drift = drifted(g);
  if (span.live()) {
    span.span().a = drift ? 1 : 0;
    span.span().b = edge_imbalance();
    span.span().c = vertex_imbalance();
  }
  if (!drift) {
    stats_.last_edge_imbalance = edge_imbalance();
    stats_.last_vertex_imbalance = vertex_imbalance();
    return RebalanceAction::None;
  }
  run_full(g);
  ++stats_.full;
  return RebalanceAction::Full;
}

}  // namespace vebo::stream
