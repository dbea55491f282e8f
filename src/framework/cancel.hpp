// Cooperative cancellation and deadlines for long-running queries.
//
// A traversal cannot be stopped preemptively without corrupting engine
// scratch, so cancellation is cooperative: the party that wants to stop a
// query sets a flag (CancelSource::cancel()) or lets a deadline lapse,
// and the running query polls a QueryContext at its superstep boundaries
// — every edge_map / edge_fold entry, and the hand-rolled loops that run
// no framework step (CC's rounds, BC's backward sweep, BF's bucket pass,
// the refresh repairs). The poll points live BETWEEN
// supersteps, never inside the dense kernels, so a cancelled
// traversal stops within one superstep while the hot loops stay exactly
// as fast as before (an unbound engine pays one pointer test per
// superstep).
//
// Plumbing: the caller that owns the query (serve::GraphService worker,
// StreamSession, AlgorithmSpec::invoke) binds the context to the engine
// for the duration of the run (Engine::bind_query_context); framework
// entry points poll it via Engine::poll_cancellation(). checkpoint()
// throws CancelledError / DeadlineExceededError — both vebo::Error
// subclasses, so legacy catch sites keep working and the serving layer
// can map them onto its typed error codes.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "support/error.hpp"

namespace vebo {

/// Thrown by QueryContext::checkpoint() when the query was cancelled.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what) : Error(what) {}
};

/// Thrown by QueryContext::checkpoint() when the deadline has passed.
class DeadlineExceededError : public Error {
 public:
  explicit DeadlineExceededError(const std::string& what) : Error(what) {}
};

class CancelSource;

/// A cheap, copyable view of one cancellation flag. Default-constructed
/// tokens can never be cancelled; real ones come from CancelSource. Safe
/// to poll from any thread while the source (or any token copy) lives.
class CancelToken {
 public:
  CancelToken() = default;

  bool can_be_cancelled() const { return state_ != nullptr; }
  bool cancelled() const {
    return state_ != nullptr && state_->load(std::memory_order_acquire);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> s)
      : state_(std::move(s)) {}

  std::shared_ptr<const std::atomic<bool>> state_;
};

/// The owning side of a cancellation flag: the client keeps the source,
/// hands token() to the query, and may call cancel() from any thread at
/// any time (idempotent; safe after the query finished).
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() { state_->store(true, std::memory_order_release); }
  bool cancelled() const { return state_->load(std::memory_order_acquire); }
  CancelToken token() const { return CancelToken(state_); }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// The per-query execution context polled at superstep boundaries: an
/// optional cancellation token plus an optional absolute deadline.
/// Default-constructed contexts are unbounded (checkpoint() is a no-op
/// beyond one branch) — the shape every non-serving caller gets.
class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  QueryContext() = default;

  QueryContext& set_cancel_token(CancelToken t) {
    token_ = std::move(t);
    return *this;
  }
  /// Absolute deadline; queries past it fail with DeadlineExceededError
  /// at the next checkpoint (or are shed before running at all — see
  /// serve::GraphService).
  QueryContext& set_deadline(Clock::time_point d) {
    deadline_ = d;
    has_deadline_ = true;
    return *this;
  }

  /// Relative deadline: `budget_ms` from now. A budget the clock cannot
  /// represent from now (~292 years, or +inf) names no time point, so
  /// the context stays without a deadline rather than overflow into one
  /// that already lapsed. The min() absorbs the rounding of `room` in
  /// the double comparison.
  QueryContext& set_deadline_in(double budget_ms) {
    const Clock::time_point now = Clock::now();
    const Clock::duration room = Clock::time_point::max() - now;
    const std::chrono::duration<double, std::milli> budget(budget_ms);
    if (budget < room)
      set_deadline(now + std::min(room, std::chrono::duration_cast<
                                            Clock::duration>(budget)));
    return *this;
  }

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }
  bool cancelled() const { return token_.cancelled(); }
  bool deadline_expired() const {
    return has_deadline_ && Clock::now() >= deadline_;
  }

  /// The superstep poll: throws CancelledError / DeadlineExceededError
  /// when the query should stop, returns otherwise. Cancellation wins
  /// over an expired deadline (the explicit signal is the stronger one).
  void checkpoint() const {
    if (token_.cancelled())
      throw CancelledError("query cancelled (cooperative checkpoint)");
    if (deadline_expired())
      throw DeadlineExceededError("query deadline exceeded mid-run");
  }

  /// Shared unbounded instance for callers with nothing to enforce.
  static const QueryContext& none() {
    static const QueryContext ctx;
    return ctx;
  }

 private:
  CancelToken token_;
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
};

}  // namespace vebo
