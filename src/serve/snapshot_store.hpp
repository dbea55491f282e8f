// SnapshotStore: epoch/refcount-versioned publication of immutable graph
// snapshots — the read side of the serving subsystem.
//
// A single writer thread folds DeltaGraph batches (via stream::
// StreamSession), materializes a reordered snapshot, and publishes the
// (Graph, Partitioning, version) triple here. Readers call acquire() and
// get a SnapshotRef pinning that epoch: the graph a running query sees
// can never be reclaimed underneath it, no matter how many newer versions
// the writer publishes meanwhile. A superseded snapshot is reclaimed the
// moment its last SnapshotRef drops — publication itself never blocks on
// readers, and readers never block on a publication (acquire/publish
// exchange one shared_ptr under a leaf mutex; all snapshot construction
// happens on the writer before the swap).
//
// Epochs are the store's own monotonic counter (version 0 = nothing
// published yet), so result caches can key on version and a query result
// can name the exact graph state it was computed on.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "graph/graph.hpp"
#include "graph/permute.hpp"
#include "order/partition.hpp"
#include "support/annotated_mutex.hpp"
#include "support/error.hpp"

namespace vebo::serve {

/// One published epoch: an immutable reordered graph, the partitioning
/// maintained for it (VEBO-contiguous in the reordered id space), and the
/// store version it was published as. `perm` (optional) maps original
/// vertex ids to snapshot positions, so clients can keep addressing
/// vertices by stable original ids across reorderings; it travels inside
/// the snapshot so a reader can never pair a graph with the wrong epoch's
/// mapping.
struct Snapshot {
  std::shared_ptr<const Graph> graph;
  order::Partitioning partitioning;
  std::uint64_t version = 0;
  std::shared_ptr<const Permutation> perm;
};

/// A reader's pin on one epoch. Copyable and cheap (shared_ptr); while
/// any ref to a snapshot exists, its graph stays valid. Default-
/// constructed refs are empty (store had nothing published).
class SnapshotRef {
 public:
  SnapshotRef() = default;

  bool valid() const { return snap_ != nullptr; }
  explicit operator bool() const { return valid(); }

  /// graph()/partitioning() require a valid() ref — an
  /// empty one (store with nothing published) throws instead of
  /// dereferencing null, matching the tolerant version()/perm().
  const Graph& graph() const {
    VEBO_ASSERT(snap_ != nullptr);
    return *snap_->graph;
  }
  const order::Partitioning& partitioning() const {
    VEBO_ASSERT(snap_ != nullptr);
    return snap_->partitioning;
  }
  std::uint64_t version() const { return snap_ ? snap_->version : 0; }

  /// Original-id -> snapshot-position mapping, or nullptr when the
  /// publisher did not attach one (ids are then positional).
  const Permutation* perm() const {
    return snap_ ? snap_->perm.get() : nullptr;
  }

 private:
  friend class SnapshotStore;
  explicit SnapshotRef(std::shared_ptr<const Snapshot> s)
      : snap_(std::move(s)) {}

  std::shared_ptr<const Snapshot> snap_;
};

struct SnapshotStoreStats {
  std::uint64_t published = 0;  ///< epochs ever published
  std::uint64_t reclaimed = 0;  ///< epochs whose last ref dropped
  std::uint64_t live = 0;       ///< published - reclaimed
};

class SnapshotStore {
 public:
  SnapshotStore() = default;
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Publishes a new epoch and returns its version (1, 2, ...). The
  /// previous epoch stays alive until the last reader ref drops. Writer-
  /// side API — concurrent publishers are serialized but the intended
  /// topology is one writer thread.
  std::uint64_t publish(std::shared_ptr<const Graph> graph,
                        order::Partitioning partitioning,
                        std::shared_ptr<const Permutation> perm = nullptr)
      EXCLUDES(mutex_);

  /// Pins and returns the current epoch (empty ref if nothing has been
  /// published yet). Safe from any thread, never blocks on a publish in
  /// progress beyond the pointer swap.
  SnapshotRef acquire() const EXCLUDES(mutex_);

  /// Version of the current epoch (0 before the first publish).
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Reclamation accounting. `live` counts snapshots whose memory is
  /// still held by the store or by outstanding refs (engine-pool bindings
  /// included).
  SnapshotStoreStats stats() const;

 private:
  // Reclamation counters outlive the store if refs do: snapshots hold the
  // block via shared_ptr and tick `reclaimed` from their deleter.
  struct Counters {
    std::atomic<std::uint64_t> published{0};
    std::atomic<std::uint64_t> reclaimed{0};
  };

  std::shared_ptr<Counters> counters_ = std::make_shared<Counters>();
  std::atomic<std::uint64_t> next_version_{0};  ///< version allocator
  std::atomic<std::uint64_t> version_{0};       ///< current epoch
  mutable Mutex mutex_;  ///< leaf lock: guards current_ swap/copy only
  std::shared_ptr<const Snapshot> current_ GUARDED_BY(mutex_);
};

}  // namespace vebo::serve
