// EnginePool: a bounded, grow-on-demand pool of engine execution contexts
// so N in-flight queries each get their own edge_map scratch.
//
// The framework Engine is deliberately single-caller on its scratch
// (Engine::ScratchLease throws on a second concurrent edge_map), so
// concurrent serving needs one engine per in-flight query. The pool
// amortizes exactly the state that is expensive to rebuild per query:
//  * the engine's grow-only slot buffer and claim bitset (PR-1 scratch)
//    survive snapshot swaps via Engine::rebind,
//  * each entry owns a private ThreadPool for its intra-query parallel
//    regions, so queries on different entries never contend on the global
//    pool's region lock (threads_per_engine=1 runs a query's loops
//    serially — the right default when throughput comes from query-level
//    concurrency).
//
// lease(snapshot) prefers a free entry already bound to the requested
// version, rebinds a stale free entry otherwise, grows the pool up to
// max_engines, and only then blocks. Entries pin their bound snapshot
// with a SnapshotRef, so a superseded epoch stays alive while an engine
// still traverses it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <vector>

#include "framework/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/snapshot_store.hpp"
#include "support/annotated_mutex.hpp"

namespace vebo::serve {

struct EnginePoolOptions {
  SystemModel model = SystemModel::Polymer;
  /// Hard cap on engine contexts; lease() blocks when all are busy.
  std::size_t max_engines = 8;
  /// Threads for each entry's private pool (intra-query parallelism).
  /// 1 = queries run their parallel regions serially on the serving
  /// worker; raise only when clients are fewer than cores.
  std::size_t threads_per_engine = 1;
};

struct EnginePoolStats {
  std::uint64_t created = 0;  ///< engine contexts constructed
  std::uint64_t leases = 0;
  std::uint64_t rebinds = 0;  ///< leases that crossed a snapshot version
  std::uint64_t waits = 0;    ///< leases that blocked on a full pool
};

class EnginePool {
 public:
  explicit EnginePool(EnginePoolOptions opts = {});
  ~EnginePool() = default;  // all leases must have been released

  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  /// RAII borrow of one engine context bound to `snapshot()`. Returned to
  /// the pool on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    ~Lease() { release(); }

    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    bool valid() const { return entry_ != nullptr; }
    Engine& engine() const;
    /// The epoch this engine is bound to (pinned for the lease lifetime).
    const SnapshotRef& snapshot() const;

    void release();

   private:
    friend class EnginePool;
    Lease(EnginePool* pool, void* entry) : pool_(pool), entry_(entry) {}

    EnginePool* pool_ = nullptr;
    void* entry_ = nullptr;
  };

  /// Leases an engine bound to the given snapshot, rebinding or growing
  /// as needed; blocks only when max_engines leases are outstanding.
  Lease lease(const SnapshotRef& snapshot) EXCLUDES(mutex_);

  std::size_t size() const EXCLUDES(mutex_);
  /// Leases currently outstanding (busy entries). 0 when every borrowed
  /// engine has been returned — the chaos tests' lease-leak invariant.
  std::size_t outstanding() const EXCLUDES(mutex_);
  EnginePoolStats stats() const EXCLUDES(mutex_);

 private:
  /// The busy flag is pool-lock state; pool/engine/bound are deliberately
  /// UNGUARDED — they are mutated only by bind_entry, which runs with the
  /// entry exclusively owned (busy=true published under mutex_) and the
  /// lock dropped, because binding can be arbitrarily expensive.
  struct Entry {
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<Engine> engine;
    SnapshotRef bound;
    bool busy = false;
  };

  const order::Partitioning* partitioning_for(const SnapshotRef& snap) const;
  void bind_entry(Entry& e, const SnapshotRef& snap) EXCLUDES(mutex_);
  /// bind_entry with slot-leak protection: on a throw, resets the entry
  /// to idle, releases the slot, and rethrows.
  void bind_safely(Entry& e, const SnapshotRef& snap) EXCLUDES(mutex_);
  void release_entry(Entry* e) EXCLUDES(mutex_);

  EnginePoolOptions opts_;
  mutable Mutex mutex_;
  std::condition_variable available_;
  std::vector<std::unique_ptr<Entry>> entries_ GUARDED_BY(mutex_);
  EnginePoolStats stats_ GUARDED_BY(mutex_);
};

}  // namespace vebo::serve
