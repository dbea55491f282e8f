#include "stream/session.hpp"

#include <algorithm>
#include <utility>

#include "obs/recorder.hpp"
#include "support/error.hpp"

namespace vebo::stream {

namespace {

/// An arc's NetFlips key, (src << 32) | dst, and back.
std::uint64_t arc_key(const Edge& e) {
  return (static_cast<std::uint64_t>(e.src) << 32) | e.dst;
}

Edge arc_of(std::uint64_t key) {
  return {static_cast<VertexId>(key >> 32),
          static_cast<VertexId>(key & 0xffffffffu)};
}

}  // namespace

StreamSession::StreamSession(const Graph& initial, SessionOptions opts)
    : opts_(opts), delta_(initial), maintainer_(delta_, opts.rebalance) {
  if (opts_.metrics != nullptr)
    metrics_reg_ = opts_.metrics->add_collector(
        [this](std::vector<obs::MetricSample>& out) { collect_metrics(out); });
}

StreamSession::BatchOutcome StreamSession::apply(
    std::span<const EdgeUpdate> batch) {
  BatchOutcome out;
  {
    obs::StageScope span(obs::SpanKind::ApplyBatch);
    out.applied = delta_.apply_batch(batch);
    if (span.live()) {
      span.span().a = out.applied.inserted;
      span.span().b = out.applied.removed;
      span.span().c = out.applied.grew_vertices;
    }
  }
  ++stats_.batches;
  stats_.inserted += out.applied.inserted;
  stats_.removed += out.applied.removed;

  // Fold the batch's effective arc flips into a net accumulator.
  // apply_batch guarantees each arc appears in at most one of the two
  // lists per batch, and between compactions an arc's flips alternate,
  // so there the net value stays within {-1, 0, +1}; zeros (a flip
  // cancelling an earlier pending flip) are erased immediately.
  auto fold = [&out](NetFlips& net) {
    auto add = [&net](const std::vector<Edge>& edges, std::int8_t sign) {
      for (const Edge& e : edges) {
        auto [it, fresh] = net.try_emplace(arc_key(e), sign);
        if (!fresh) {
          it->second = static_cast<std::int8_t>(it->second + sign);
          if (it->second == 0) net.erase(it);
        }
      }
    };
    add(out.applied.inserted_edges, +1);
    add(out.applied.removed_edges, -1);
  };
  fold(pending_delta_);

  maintainer_.observe(out.applied);
  // maybe_rebalance records its own Rebalance span.
  out.rebalance = maintainer_.maybe_rebalance(delta_);

  if (out.applied.inserted > 0 || out.applied.removed > 0 ||
      out.applied.grew_vertices > 0)
    stale_ = true;

  // Keep the net flips for a patched snapshot while the ordering holds.
  // A rebalance or vertex growth changes the ordering, and net flips
  // that outnumber the live edges cost more to merge than the full
  // relabel: either way the next snapshot takes the full path.
  if (out.rebalance != RebalanceAction::None ||
      out.applied.grew_vertices > 0) {
    patchable_ = false;
  } else if (patchable_) {
    fold(flips_);
    if (flips_.size() > delta_.num_edges()) patchable_ = false;
  }

  if (opts_.compact_fraction > 0 && delta_.num_edges() > 0 &&
      static_cast<double>(delta_.delta_edges()) >
          opts_.compact_fraction * static_cast<double>(delta_.num_edges())) {
    obs::StageScope span(obs::SpanKind::Compact);
    delta_.compact();
    ++stats_.compactions;
    // The base now holds the tombstones' survivors, so a duplicated arc
    // that lost one copy flips -1 again on its next removal: its flips
    // stop alternating, and the full path takes the next snapshot.
    patchable_ = false;
  }
  if (!patchable_) flips_ = {};
  return out;
}

void StreamSession::refresh() {
  if (!stale_ && snap_ != nullptr) return;
  // Stream-path span: the snapshot + VEBO relabel + engine rebind a
  // mutation's first query pays. a stays 0 — the session itself is
  // unversioned (the SnapshotStore mints epoch versions at publish);
  // b = 1 when patched, c = net arc flips patched in.
  obs::StageScope span(obs::SpanKind::Snapshot);
  // Relabelled by the maintained ordering so the engine sees
  // VEBO-contiguous partitions.
  const Permutation& perm = maintainer_.ordering().perm;
  if (patchable_) {
    std::vector<ArcFlip> flips;
    flips.reserve(flips_.size());
    for (const auto& [key, sign] : flips_)
      flips.push_back({arc_of(key), sign});
    Csr out = patch_rows(snap_->out_csr(), flips, perm, /*by_dst=*/false,
                         delta_.out_degrees());
    Csr in = patch_rows(snap_->in_csr(), flips, perm, /*by_dst=*/true,
                        delta_.in_degrees());
    // patch_rows checks only the changed rows; a flip missing from
    // flips_ would leave its row copied, and the edge count short.
    // (from_parts checks that the CSC agrees.)
    VEBO_CHECK(out.num_edges() == delta_.num_edges(),
               "refresh: patched edge count != live edge count");
    snap_ = std::make_shared<const Graph>(
        Graph::from_parts(std::move(out), std::move(in), delta_.directed()));
    ++stats_.snapshots_patched;
    if (span.live()) {
      span.span().b = 1;
      span.span().c = flips.size();
    }
  } else {
    snap_ = std::make_shared<const Graph>(delta_.snapshot(perm));
  }
  ++stats_.snapshots;
  flips_.clear();
  patchable_ = true;
  const order::Partitioning* part =
      opts_.model == SystemModel::Ligra ? nullptr
                                        : &maintainer_.partitioning();
  if (engine_ == nullptr) {
    EngineOptions eopts;
    eopts.explicit_partitioning = part;
    engine_ = std::make_unique<Engine>(*snap_, opts_.model, eopts);
  } else {
    engine_->rebind(*snap_, part);
  }
  stale_ = false;
}

const Graph& StreamSession::snapshot() {
  refresh();
  return *snap_;
}

std::shared_ptr<const Graph> StreamSession::shared_snapshot() {
  refresh();
  return snap_;
}

double StreamSession::query(const std::string& algo_code, VertexId source) {
  refresh();
  VEBO_CHECK(source < delta_.num_vertices(), "query: source out of range");
  ++stats_.queries;
  const algo::AlgorithmSpec& s = algo::spec(algo_code);
  algo::QueryParams params;
  if (s.params.find("source") != nullptr)
    params.set("source", position_of(source));
  return s.checksum(s.invoke(*engine_, params));
}

algo::QueryPayload StreamSession::query_typed(const std::string& algo_code,
                                              const algo::QueryParams& params) {
  refresh();
  const algo::AlgorithmSpec& s = algo::spec(algo_code);
  algo::QueryParams norm = s.params.validate(params);
  if (s.params.find("source") != nullptr) {
    const VertexId src = norm.get_vertex("source");
    VEBO_CHECK(src < delta_.num_vertices(), "query: source out of range");
    norm.set("source", position_of(src));
  }
  ++stats_.queries;
  const algo::QueryPayload payload = s.run(*engine_, norm);
  return algo::translate_to_original_ids(payload,
                                         maintainer_.ordering().perm);
}

algo::EdgeDelta StreamSession::drain_delta() {
  std::vector<std::pair<std::uint64_t, std::int8_t>> flat(
      pending_delta_.begin(), pending_delta_.end());
  pending_delta_.clear();
  std::sort(flat.begin(), flat.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  algo::EdgeDelta out;
  for (const auto& [key, sign] : flat)
    (sign > 0 ? out.inserted : out.removed).push_back(arc_of(key));
  return out;
}

void StreamSession::collect_metrics(
    std::vector<obs::MetricSample>& out) const {
  using obs::MetricSample;
  using obs::MetricType;
  auto emit = [&out](MetricType type, const char* name, const char* help,
                     double value) {
    MetricSample s;
    s.name = name;
    s.help = help;
    s.type = type;
    s.value = value;
    out.push_back(std::move(s));
  };
  emit(MetricType::Counter, "vebo_stream_batches_total",
       "update batches applied", static_cast<double>(stats_.batches));
  emit(MetricType::Counter, "vebo_stream_inserted_total",
       "edges inserted", static_cast<double>(stats_.inserted));
  emit(MetricType::Counter, "vebo_stream_removed_total",
       "edges removed", static_cast<double>(stats_.removed));
  emit(MetricType::Counter, "vebo_stream_queries_total",
       "queries run on the session", static_cast<double>(stats_.queries));
  emit(MetricType::Counter, "vebo_stream_snapshots_total",
       "snapshot + reorder rebuilds", static_cast<double>(stats_.snapshots));
  emit(MetricType::Counter, "vebo_stream_snapshots_patched_total",
       "snapshots patched from the previous one",
       static_cast<double>(stats_.snapshots_patched));
  emit(MetricType::Counter, "vebo_stream_compactions_total",
       "DeltaGraph base rebuilds", static_cast<double>(stats_.compactions));
  const RebalanceStats& rs = maintainer_.stats();
  emit(MetricType::Counter, "vebo_rebalance_batches_observed_total",
       "batches folded into the maintainer",
       static_cast<double>(rs.batches_observed));
  emit(MetricType::Counter, "vebo_rebalance_full_total",
       "full VEBO re-runs", static_cast<double>(rs.full));
  emit(MetricType::Gauge, "vebo_rebalance_edge_imbalance",
       "last observed max-min partition in-edges",
       static_cast<double>(rs.last_edge_imbalance));
  emit(MetricType::Gauge, "vebo_rebalance_vertex_imbalance",
       "last observed max-min partition vertices",
       static_cast<double>(rs.last_vertex_imbalance));
}

}  // namespace vebo::stream
