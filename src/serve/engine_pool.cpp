#include "serve/engine_pool.hpp"

#include "support/error.hpp"

namespace vebo::serve {

EnginePool::EnginePool(EnginePoolOptions opts) : opts_(opts) {
  VEBO_CHECK(opts_.max_engines >= 1, "EnginePool: max_engines must be >= 1");
  VEBO_CHECK(opts_.threads_per_engine >= 1,
             "EnginePool: threads_per_engine must be >= 1");
}

EnginePool::Lease& EnginePool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    release();
    pool_ = other.pool_;
    entry_ = other.entry_;
    other.pool_ = nullptr;
    other.entry_ = nullptr;
  }
  return *this;
}

Engine& EnginePool::Lease::engine() const {
  VEBO_ASSERT(entry_ != nullptr);
  return *static_cast<Entry*>(entry_)->engine;
}

const SnapshotRef& EnginePool::Lease::snapshot() const {
  VEBO_ASSERT(entry_ != nullptr);
  return static_cast<Entry*>(entry_)->bound;
}

void EnginePool::Lease::release() {
  if (entry_ != nullptr) {
    pool_->release_entry(static_cast<Entry*>(entry_));
    pool_ = nullptr;
    entry_ = nullptr;
  }
}

const order::Partitioning* EnginePool::partitioning_for(
    const SnapshotRef& snap) const {
  // Non-Ligra engines run on the published VEBO partitioning (the point
  // of serving reordered snapshots). The pointer targets the shared
  // Snapshot object, which the entry's SnapshotRef pins for as long as
  // the engine is bound to it.
  if (opts_.model == SystemModel::Ligra) return nullptr;
  if (snap.partitioning().num_partitions() == 0) return nullptr;
  return &snap.partitioning();
}

void EnginePool::bind_entry(Entry& e, const SnapshotRef& snap) {
  // Runs outside the pool lock: the entry is exclusively ours (busy) and
  // engine construction/rebind can be arbitrarily expensive.
  e.bound = snap;
  const order::Partitioning* part = partitioning_for(e.bound);
  if (e.engine == nullptr) {
    e.pool = std::make_unique<ThreadPool>(opts_.threads_per_engine);
    EngineOptions eopts;
    eopts.explicit_partitioning = part;
    eopts.pool = e.pool.get();
    e.engine = std::make_unique<Engine>(e.bound.graph(), opts_.model, eopts);
  } else {
    // Keeps the grow-only slot buffer + claim bitset (PR-1 scratch).
    e.engine->rebind(e.bound.graph(), part);
  }
}

void EnginePool::bind_safely(Entry& e, const SnapshotRef& snap) {
  // A throw out of binding (e.g. bad_alloc building engine structures)
  // must not leak a busy slot — that would wedge every future lease once
  // max_engines slots leaked. Reset the entry to a rebindable idle state
  // and hand the slot back before propagating.
  try {
    bind_entry(e, snap);
  } catch (...) {
    e.engine.reset();
    e.pool.reset();
    e.bound = SnapshotRef();
    release_entry(&e);
    throw;
  }
}

EnginePool::Lease EnginePool::lease(const SnapshotRef& snapshot) {
  VEBO_CHECK(snapshot.valid(), "EnginePool::lease: empty snapshot ref");
  MutexLock lk(mutex_);
  bool counted_wait = false;
  for (;;) {
    // Prefer a free entry already bound to this epoch (no rebind, warm
    // dense chunk bounds); otherwise any free entry, rebinding it forward.
    Entry* pick = nullptr;
    for (auto& e : entries_) {
      if (e->busy) continue;
      if (e->bound.version() == snapshot.version()) {
        pick = e.get();
        break;
      }
      if (pick == nullptr) pick = e.get();
    }
    if (pick != nullptr) {
      pick->busy = true;
      ++stats_.leases;
      const bool stale = pick->bound.version() != snapshot.version();
      if (stale) ++stats_.rebinds;
      lk.unlock();
      if (stale) bind_safely(*pick, snapshot);
      return Lease(this, pick);
    }
    if (entries_.size() < opts_.max_engines) {
      entries_.push_back(std::make_unique<Entry>());
      Entry* fresh = entries_.back().get();
      fresh->busy = true;
      ++stats_.created;
      ++stats_.leases;
      lk.unlock();
      bind_safely(*fresh, snapshot);
      return Lease(this, fresh);
    }
    // One blocked lease counts once, even if a wakeup loses the freed
    // entry to a fresh caller and has to wait again.
    if (!counted_wait) {
      counted_wait = true;
      ++stats_.waits;
    }
    available_.wait(lk.native_lock());
  }
}

void EnginePool::release_entry(Entry* e) {
  {
    MutexLock lk(mutex_);
    e->busy = false;
  }
  available_.notify_one();
}

std::size_t EnginePool::size() const {
  MutexLock lk(mutex_);
  return entries_.size();
}

std::size_t EnginePool::outstanding() const {
  MutexLock lk(mutex_);
  std::size_t busy = 0;
  for (const auto& e : entries_)
    if (e->busy) ++busy;
  return busy;
}

EnginePoolStats EnginePool::stats() const {
  MutexLock lk(mutex_);
  return stats_;
}

}  // namespace vebo::serve
