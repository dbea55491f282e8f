// Edge-update types for the streaming subsystem.
//
// A stream is a sequence of batches; each batch is a span of EdgeUpdates
// applied atomically to a DeltaGraph. Updates use set semantics: inserting
// an edge that is already live is a no-op, as is removing one that is not.
// Within a batch, multiple updates to the same (src, dst) pair resolve to
// the last one in batch order.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace vebo::stream {

enum class UpdateKind : std::uint8_t { Insert, Remove };

struct EdgeUpdate {
  VertexId src;
  VertexId dst;
  UpdateKind kind = UpdateKind::Insert;

  static EdgeUpdate insert(VertexId s, VertexId d) {
    return {s, d, UpdateKind::Insert};
  }
  static EdgeUpdate remove(VertexId s, VertexId d) {
    return {s, d, UpdateKind::Remove};
  }

  friend bool operator==(const EdgeUpdate&, const EdgeUpdate&) = default;
};

/// What a batch actually changed (after dedup and set semantics).
struct ApplyResult {
  EdgeId inserted = 0;       ///< edges that became live
  EdgeId removed = 0;        ///< edges that became dead
  VertexId grew_vertices = 0;  ///< vertex-set growth caused by the batch
  /// Vertices whose in-degree changed, with the signed change, once each
  /// in ascending order. The VEBO maintainer folds it into its partition
  /// loads.
  std::vector<std::pair<VertexId, std::int64_t>> in_degree_delta;
  /// The effective per-batch edge delta: every (src, dst) arc that became
  /// live / dead, post-dedup (set-semantics no-ops excluded). Undirected
  /// graphs carry both orientations, matching the symmetrized arc set a
  /// snapshot exposes. `inserted_edges.size() == inserted` and likewise
  /// for removals; this is the raw material incremental query refresh
  /// (PR 10) accumulates across batches.
  std::vector<Edge> inserted_edges;
  std::vector<Edge> removed_edges;
};

}  // namespace vebo::stream
