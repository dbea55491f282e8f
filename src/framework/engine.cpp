#include "framework/engine.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace vebo {

std::string to_string(SystemModel m) {
  switch (m) {
    case SystemModel::Ligra: return "Ligra";
    case SystemModel::Polymer: return "Polymer";
    case SystemModel::GraphGrind: return "GraphGrind";
  }
  return "?";
}

namespace {
VertexId default_partitions(SystemModel m) {
  switch (m) {
    case SystemModel::Ligra: return 0;        // Ligra does not partition
    case SystemModel::Polymer: return 4;      // one per NUMA node (paper)
    case SystemModel::GraphGrind: return 384; // paper's recommendation
  }
  return 0;
}
}  // namespace

Engine::Engine(const Graph& g, SystemModel model, EngineOptions opts)
    : graph_(&g), model_(model), opts_(opts) {
  VEBO_CHECK(opts_.dense_denominator >= 1, "dense_denominator must be >= 1");
  rebind(g, opts_.explicit_partitioning);
}

void Engine::rebind(const Graph& g, const order::Partitioning* part) {
  VEBO_CHECK(!scratch_busy_.load(std::memory_order_acquire),
             "rebind during an active edge_map");
  graph_ = &g;
  // A context bound by a previous query must not dangle into the next
  // one: rebind happens between queries (quiescence), so clearing here is
  // safe and makes a leaked binding impossible across epoch swaps.
  qctx_ = nullptr;
  // Keep options() consistent with the engine's actual partitioning:
  // after a rebind the stored pointer either names the partitioning in
  // use or is cleared.
  opts_.explicit_partitioning = part;
  if (part != nullptr) {
    part_ = *part;
    partitions_ = part_.num_partitions();
    VEBO_CHECK(part_.covers(g.num_vertices()),
               "explicit partitioning does not cover the vertex set");
  } else {
    partitions_ = opts_.partitions ? opts_.partitions
                                   : default_partitions(model_);
    if (partitions_ > 0) {
      // Never more partitions than vertices.
      partitions_ = std::min<VertexId>(partitions_, g.num_vertices());
      part_ = order::partition_by_destination(g, partitions_);
    }
  }
  dense_chunks_.clear();
  if (partitioned()) return;
  // Edge-balanced dense chunks: enough for dynamic scheduling to absorb
  // residual skew, few enough that per-chunk overhead stays negligible.
  const VertexId n = g.num_vertices();
  const std::span<const EdgeId> off = g.in_csr().offsets();
  const VertexId T = static_cast<VertexId>(std::min<std::size_t>(
      std::max<VertexId>(n, 1), pool().num_threads() * 8));
  dense_chunks_.resize(T + 1);
  dense_chunks_[0] = 0;
  dense_chunks_[T] = n;
  // Work measure w(v) = in_off[v] + v is strictly increasing, so each
  // boundary is a binary search for the first destination at or past an
  // equal share of the total (in-edges + destinations).
  const std::uint64_t total =
      (off.empty() ? 0 : static_cast<std::uint64_t>(off[n])) + n;
  for (VertexId t = 1; t < T; ++t) {
    const std::uint64_t want = total * t / T;
    VertexId lo = 0, hi = n;
    while (lo < hi) {
      const VertexId mid = lo + (hi - lo) / 2;
      if (static_cast<std::uint64_t>(off[mid]) + mid < want)
        lo = mid + 1;
      else
        hi = mid;
    }
    dense_chunks_[t] = lo;
  }
}

ForOptions Engine::vertex_loop() const {
  ForOptions o;
  o.pool = opts_.pool;
  switch (model_) {
    case SystemModel::Ligra:
      // Cilk-style dynamic scheduling; fine grain to mimic recursive
      // splitting of the iteration range.
      o.schedule = Schedule::Dynamic;
      o.grain = 256;
      break;
    case SystemModel::Polymer:
      o.schedule = Schedule::Static;
      break;
    case SystemModel::GraphGrind:
      // Static binding of partitions to sockets with dynamic distribution
      // inside; for a vertex loop this behaves like guided scheduling.
      o.schedule = Schedule::Guided;
      o.grain = 512;
      break;
  }
  return o;
}

ForOptions Engine::partition_loop() const {
  ForOptions o;
  o.pool = opts_.pool;
  o.schedule =
      model_ == SystemModel::Ligra ? Schedule::Dynamic : Schedule::Static;
  o.grain = 1;
  o.serial_cutoff = 1;
  return o;
}

ForOptions Engine::dense_chunk_loop() const {
  ForOptions o;
  o.pool = opts_.pool;
  o.schedule = Schedule::Dynamic;
  o.grain = 1;
  o.serial_cutoff = 1;
  return o;
}

Engine::ScratchLease::ScratchLease(const Engine& eng)
    : busy_(&eng.scratch_busy_) {
  VEBO_CHECK(!busy_->exchange(true, std::memory_order_acquire),
             "edge_map scratch already in use: concurrent or reentrant "
             "edge_map calls on one Engine are not supported");
}

}  // namespace vebo
