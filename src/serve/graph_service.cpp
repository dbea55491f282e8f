#include "serve/graph_service.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <tuple>

#include "algorithms/registry.hpp"
#include "parallel/parallel_for.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace vebo::serve {

namespace {

std::size_t code_index(ErrorCode c) { return static_cast<std::size_t>(c); }

/// Spans per worker tail-sampling ring.
constexpr std::size_t kSampleRingCapacity = 4096;
/// Keeper traces the trace store holds.
constexpr std::size_t kTraceStoreCapacity = 32;
/// The slow-keep threshold is the windowed p99 times this.
constexpr double kKeepLatencyFactor = 3.0;
/// Flight-recorder triggers: a query in flight this long, a publish
/// this slow.
constexpr double kAnomalyInFlightAgeMs = 1000;
constexpr double kAnomalyPublishStallMs = 250;

/// The shed stage: a queued query whose client already gave up (cancel
/// fired, deadline lapsed) fails fast — no snapshot pin, no engine
/// lease, no run.
void shed_if_abandoned(const QueryContext& ctx) {
  if (ctx.cancelled())
    throw ServiceError(ErrorCode::Cancelled, "query cancelled while queued");
  if (ctx.deadline_expired())
    throw ServiceError(
        ErrorCode::DeadlineExceeded,
        "query deadline expired while queued (shed before execution)");
}

/// A source vertex (an original id in `params`) as a position in
/// `snap`; throws vebo::Error when it names no vertex there.
VertexId snapshot_source(const algo::QueryParams& params,
                         const SnapshotRef& snap) {
  VertexId source = params.get_vertex("source");
  if (const Permutation* perm = snap.perm()) {
    VEBO_CHECK(source < static_cast<VertexId>(perm->size()),
               "GraphService: source out of range");
    source = (*perm)[source];
  }
  VEBO_CHECK(source < snap.graph().num_vertices(),
             "GraphService: source out of range");
  return source;
}

/// The translate stage's answer: the checksum folds in snapshot order —
/// the order the legacy surface sums in — so checksums stay
/// byte-identical across orderings; the payload is then translated to
/// original ids once, outside any lock, when `keep` says someone reads
/// it.
ResultCache::Value translated(const algo::AlgorithmSpec& spec,
                              algo::QueryPayload payload,
                              const Permutation* perm, bool keep) {
  ResultCache::Value v;
  v.checksum = spec.checksum(payload);
  if (keep)
    v.payload = std::make_shared<const algo::QueryPayload>(
        perm != nullptr ? algo::translate_to_original_ids(payload, *perm)
                        : std::move(payload));
  return v;
}

/// The delta the refresh hooks read, in `g`'s ids: `delta` itself
/// without a permutation, else its image under `perm`, built in
/// `scratch`. nullptr when refreshing would not pay or could not be
/// right: past `max_fraction` of the snapshot's edges every hook would
/// fall back to a full run (better to let queries recompute on demand),
/// and an endpoint outside the permutation means the delta does not
/// match it.
const algo::EdgeDelta* delta_for_hooks(const Graph& g,
                                       const algo::EdgeDelta& delta,
                                       const Permutation* perm,
                                       double max_fraction,
                                       algo::EdgeDelta& scratch) {
  const auto m =
      static_cast<double>(std::max<EdgeId>(g.num_edges(), 1));
  if (static_cast<double>(delta.size()) > max_fraction * m) return nullptr;
  if (perm == nullptr) return &delta;
  const auto to_snapshot = [&](const std::vector<Edge>& in,
                               std::vector<Edge>& out) {
    out.reserve(in.size());
    for (const Edge& e : in) {
      if (e.src >= perm->size() || e.dst >= perm->size()) return false;
      out.push_back({(*perm)[e.src], (*perm)[e.dst]});
    }
    return true;
  };
  if (!to_snapshot(delta.inserted, scratch.inserted) ||
      !to_snapshot(delta.removed, scratch.removed))
    return nullptr;
  return &scratch;
}

/// True iff two epochs give every vertex the same snapshot id. The store
/// keeps an identity permutation as nullptr, so a missing one reads as
/// the identity.
bool same_order(const Permutation* a, const Permutation* b) {
  if (a != nullptr && b != nullptr) return *a == *b;
  const Permutation* p = a != nullptr ? a : b;
  return p == nullptr || is_identity(*p);
}

std::uint64_t payload_vertices(const algo::QueryPayload& p) {
  switch (p.kind()) {
    case algo::PayloadKind::VertexDoubles: return p.doubles().size();
    case algo::PayloadKind::VertexIds: return p.ids().size();
    default: return 0;
  }
}

/// Whatever escaped a stage, as the ServiceError the client sees: a
/// ServiceError passes through unchanged, a mid-run cancel or deadline
/// keeps its meaning, and anything else — an algorithm throw, a failed
/// allocation, an injected fault — is Internal.
std::pair<std::exception_ptr, ErrorCode> as_service_error(
    const std::exception_ptr& e) {
  ErrorCode code = ErrorCode::Internal;
  std::string what = "unknown exception";
  try {
    std::rethrow_exception(e);
  } catch (const ServiceError& s) {
    return {e, s.code()};
  } catch (const CancelledError& c) {
    code = ErrorCode::Cancelled;
    what = c.what();
  } catch (const DeadlineExceededError& d) {
    code = ErrorCode::DeadlineExceeded;
    what = d.what();
  } catch (const std::exception& x) {
    what = x.what();
  } catch (...) {
  }
  return {std::make_exception_ptr(ServiceError(code, what)), code};
}

}  // namespace

struct GraphService::Resolved {
  SnapshotRef snap;
  const algo::AlgorithmSpec* spec = nullptr;
  /// Schema-validated, in ORIGINAL ids: the client-visible identity of
  /// the query and what the cache keys on.
  algo::QueryParams norm;
  /// The source as a snapshot position, when the schema takes one.
  std::optional<VertexId> source;
  CacheKey key;
};

/// Each boundary stamp closes the open stage's span and opens the next
/// there, so a query's serve-stage spans tile [enqueue, completion] with
/// no gap: QueueWait, CacheProbe (resolve + probe), and on a miss
/// EngineLease, Execute and Translate (which ends with the cache
/// insert). The first boundary is the worker's pickup stamp and the
/// last is the completion stamp that also yields the latency, so an
/// armed cache hit reads the clock twice: at pickup and at completion.
/// Spans go to the thread's trace and the flight recorder; when neither
/// wants them, boundaries read no clock at all.
class GraphService::StageClock {
 public:
  StageClock(std::uint64_t enqueued_ns, std::uint64_t pickup_ns)
      : armed_(obs::stage_wanted()) {
    span_.kind = obs::SpanKind::QueueWait;
    span_.start_ns = enqueued_ns;
    close(pickup_ns);
  }

  /// Opens `kind` at the last boundary. Before the first open only the
  /// queue wait is recorded: a shed query's trace.
  void open(obs::SpanKind kind, std::uint64_t arg = 0) {
    span_.kind = kind;
    span_.a = arg;
    open_ = true;
  }
  /// The open stage's kind-specific argument (Span::a).
  void arg(std::uint64_t a) { span_.a = a; }
  /// Closes the open stage at a fresh stamp and opens `kind` there.
  void advance(obs::SpanKind kind, std::uint64_t arg = 0) {
    if (armed_) close(obs::Tracer::now_ns());
    open(kind, arg);
  }
  /// Reads the completion stamp and closes the open stage there.
  std::uint64_t complete() {
    const std::uint64_t now = obs::Tracer::now_ns();
    close(now);
    return now;
  }

 private:
  void close(std::uint64_t at) {
    if (armed_ && open_) {
      span_.dur_ns = at - span_.start_ns;
      obs::record_stage(span_);
    }
    span_ = obs::Span{};
    span_.start_ns = at;
    open_ = false;
  }

  obs::Span span_;
  bool armed_;
  bool open_ = true;
};

const char* to_string(SubmitStatus s) {
  switch (s) {
    case SubmitStatus::Accepted: return "accepted";
    case SubmitStatus::QueueFull: return "queue-full";
    case SubmitStatus::Stopped: return "stopped";
  }
  return "?";
}

GraphService::GraphService(SnapshotStore& store, GraphServiceOptions opts)
    : store_(store),
      opts_(opts),
      pool_([&] {
        EnginePoolOptions eopts = opts.engine;
        // A worker must always be able to lease an engine, else a full
        // pool could park every worker and starve the queue.
        eopts.max_engines = std::max(eopts.max_engines, opts.workers);
        return eopts;
      }()),
      cache_(opts.cache_capacity),
      latency_(opts.telemetry.window_opts, kNumErrorCodes,
               opts.telemetry.window),
      trace_store_(kTraceStoreCapacity) {
  VEBO_CHECK(opts_.workers >= 1, "GraphService: workers must be >= 1");
  VEBO_CHECK(opts_.queue_capacity >= 1,
             "GraphService: queue_capacity must be >= 1");
  workers_.reserve(opts_.workers);
  worker_state_.reserve(opts_.workers);
  for (std::size_t i = 0; i < opts_.workers; ++i)
    worker_state_.push_back(std::make_unique<WorkerState>());
  for (std::size_t i = 0; i < opts_.workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
  // Register on the metrics plane last: a scrape can land the moment the
  // collector exists, so the service must already be fully built.
  if (opts_.metrics != nullptr)
    metrics_reg_ = opts_.metrics->add_collector(
        [this](std::vector<obs::MetricSample>& out) { collect_metrics(out); });
}

GraphService::~GraphService() { stop(); }

Submission GraphService::submit(Query q) {
  Submission sub;
  Item item;
  item.enqueued_ns = obs::Tracer::now_ns();
  // The deadline is made absolute at admission: queue wait counts
  // against the budget, and the shed check / superstep polls compare
  // against one fixed time point.
  if (q.deadline_ms > 0) item.ctx.set_deadline_in(q.deadline_ms);
  if (q.cancel.can_be_cancelled()) item.ctx.set_cancel_token(q.cancel);
  item.q = std::move(q);
  sub.result = item.promise.get_future();
  // Ledger discipline (see GraphServiceStats): a query enters the books
  // in the SAME critical section that decides its admission, as either
  // {submitted, in_flight} or {submitted, rejected}. The accepted-path
  // count nests stats_mutex_ inside queue_mutex_ so a worker cannot
  // complete the query (it cannot even pop it) before it is counted —
  // an observer can therefore never see completed+failed+rejected+
  // in_flight drift from submitted.
  {
    MutexLock lk(queue_mutex_);
    if (stopping_) {
      sub.status = SubmitStatus::Stopped;
    } else if (queue_.size() >= opts_.queue_capacity) {
      // Explicit backpressure: the caller sees the rejection immediately
      // instead of blocking inside the service.
      sub.status = SubmitStatus::QueueFull;
    } else {
      sub.status = SubmitStatus::Accepted;
      {
        MutexLock slk(stats_mutex_);
        ++stats_.submitted;
        ++stats_.in_flight;
      }
      queue_.push_back(std::move(item));
    }
  }
  if (sub.status == SubmitStatus::Accepted) {
    queue_cv_.notify_one();
    return sub;
  }
  {
    MutexLock lk(stats_mutex_);
    ++stats_.submitted;
    ++stats_.rejected;
    // Rejections carry no future, so the code lands in the counter only
    // (nothing to attach a ServiceError to).
    ++stats_.errors_by_code[code_index(ErrorCode::Overloaded)];
  }
  // Rejections count toward the windowed error rate (they ARE client-
  // visible failures) but carry no latency sample.
  observe_settled(item.q.algo, -1.0, code_index(ErrorCode::Overloaded),
                  item.enqueued_ns);
  sub.result = {};  // rejected submissions carry no future
  return sub;
}

QueryResult GraphService::query(Query q) {
  Submission sub = submit(std::move(q));
  if (!sub.accepted())
    throw ServiceError(ErrorCode::Overloaded,
                       std::string("GraphService: query rejected (") +
                           to_string(sub.status) + ")");
  return sub.result.get();
}

std::uint64_t GraphService::publish(
    std::shared_ptr<const Graph> graph, order::Partitioning partitioning,
    std::shared_ptr<const Permutation> perm, const algo::EdgeDelta* delta) {
  // Stream-path stage span (writer thread): covers the store publish
  // AND the cache invalidation/refresh that makes the epoch visible.
  // StageScope, not SpanScope: the flight recorder sees publishes too.
  Timer wall;
  std::uint64_t v = 0;
  // Keep a handle on the new permutation past the moves below: the
  // refresh path re-translates payloads through it.
  const std::shared_ptr<const Permutation> perm_copy = perm;
  const bool refresh =
      opts_.refresh_on_publish && opts_.cache_capacity != 0 &&
      delta != nullptr;
  {
    obs::StageScope span(obs::SpanKind::Publish);
    // The epoch this publish supersedes, pinned only while it is read,
    // before the swap: the refresh path steps the cache from its version,
    // and keeps perm-bound entries only if that epoch ordered the
    // vertices as the new one does.
    std::uint64_t prev_v = 0;
    bool perm_stable = false;
    if (refresh) {
      const SnapshotRef prev = store_.acquire();
      prev_v = prev.version();
      perm_stable = same_order(prev.perm(), perm.get());
    }
    v = store_.publish(std::move(graph), std::move(partitioning),
                       std::move(perm));
    const CacheTurnover turnover =
        refresh ? refresh_cache(prev_v, v, *delta, perm_copy, perm_stable)
                : invalidate_cache();
    if (span.live()) {
      span.span().a = v;
      span.span().b = turnover.refreshed;
      span.span().c = turnover.dropped;
    }
  }
  // Anomaly trigger: a stalled publish means readers are pinned to an
  // aging epoch — exactly the moment to freeze the black box.
  if (wall.elapsed_ms() >= kAnomalyPublishStallMs) {
    obs::FlightRecorder& rec = obs::FlightRecorder::instance();
    if (rec.armed()) rec.trigger("publish-stall");
  }
  return v;
}

std::uint64_t GraphService::publish_session(stream::StreamSession& session) {
  // shared_snapshot() refreshes on the calling (writer) thread, so all
  // snapshot+reorder cost lands here, never on a reader.
  std::shared_ptr<const Graph> snap = session.shared_snapshot();
  auto perm = std::make_shared<const Permutation>(
      session.maintainer().ordering().perm);
  // Drain unconditionally, not just in refresh mode: the accumulator
  // must reset at every publish boundary so a later mode flip cannot
  // see a delta spanning several epochs.
  const algo::EdgeDelta delta = session.drain_delta();
  return publish(std::move(snap), session.maintainer().partitioning(),
                 std::move(perm), &delta);
}

void GraphService::stop() {
  MutexLock stop_lk(stop_mutex_);
  {
    MutexLock lk(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void GraphService::worker_loop(std::size_t worker_idx) {
  WorkerState& ws = *worker_state_[worker_idx];
  for (;;) {
    Item item;
    {
      // Open-coded wait predicate: a lambda body is a separate function
      // to the thread-safety analysis, so the guarded reads live here,
      // where the capability is visibly held.
      MutexLock lk(queue_mutex_);
      while (!stopping_ && queue_.empty()) queue_cv_.wait(lk.native_lock());
      if (queue_.empty()) return;  // stopping_ && drained
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    // Heartbeat: busy from pickup until settle() stamps it idle right
    // before the promise resolves, so health().oldest_running_ms sees
    // queue-stall and run time alike. The same stamp is the stage
    // driver's first boundary (queue wait ends, the probe starts).
    std::uint64_t pickup_ns = obs::Tracer::now_ns();
    ws.busy_since_ns.store(pickup_ns, std::memory_order_release);
    // Chaos hook: a stalled worker between pickup and execution — the
    // window where deadlines lapse after the queue check would pass.
    // The heartbeat keeps the pre-stall stamp (health must see the age
    // grow), but the stage boundary moves past the stall so a kept
    // trace bills it to queue wait.
    if (FaultInjector::instance().delay_point(
            FaultInjector::Hook::WorkerStall))
      pickup_ns = obs::Tracer::now_ns();
    process(item, ws, pickup_ns);
  }
}

void GraphService::process(Item& item, WorkerState& ws,
                           std::uint64_t pickup_ns) {
  // Arm before the first stage: a shed query's capture (its queue wait)
  // is still forensics. Opt-in tracing (Query::trace) uses the full-size
  // RAII trace and returns the spans on the result; tail sampling reuses
  // the worker's ring from the enqueue stamp (no clock read) and decides
  // keep or drop at settle. Mutually exclusive by construction.
  std::optional<obs::ThreadTrace> trace;
  if (item.q.trace)
    trace.emplace();
  else if (opts_.telemetry.tail_sampling)
    obs::Tracer::begin_reusing(kSampleRingCapacity, item.enqueued_ns);
  StageClock stages(item.enqueued_ns, pickup_ns);
  const bool want_payload = item.q.result == ResultKind::Payload;
  QueryResult r;
  std::exception_ptr error;
  bool shed = true;
  try {
    shed_if_abandoned(item.ctx);
    shed = false;
    stages.open(obs::SpanKind::CacheProbe);
    const Resolved q = resolve(item.q);
    r.version = q.snap.version();
    r.cache_hit = probe(q, want_payload, r);
    stages.arg(r.cache_hit ? 1 : 0);
    if (!r.cache_hit) {
      algo::QueryPayload payload = execute(q, item.ctx, stages);
      stages.advance(obs::SpanKind::Translate, payload_vertices(payload));
      translate(q, std::move(payload), want_payload, r);
    }
  } catch (...) {
    error = std::current_exception();
  }
  const std::uint64_t done_ns = stages.complete();
  r.latency_ms = static_cast<double>(done_ns - item.enqueued_ns) / 1e6;
  // Close the opt-in trace before the promise resolves so the client's
  // future carries the complete span set.
  if (trace && !error)
    r.trace = std::make_shared<const obs::Trace>(trace->finish());
  settle(item, ws, std::move(r), error, shed, done_ns);
}

GraphService::Resolved GraphService::resolve(const Query& q) const {
  Resolved r;
  r.snap = store_.acquire();
  if (!r.snap)
    throw ServiceError(ErrorCode::NoSnapshot,
                       "GraphService: no snapshot published yet");
  r.spec = algo::find_spec(q.algo);
  if (r.spec == nullptr)
    throw ServiceError(ErrorCode::BadRequest,
                       "GraphService: unknown algorithm code: " + q.algo);
  // Validate against the schema (throws on unknown/ill-typed params,
  // fills defaults) with the legacy `source` field folded in.
  // Validation failures are the client's fault: BadRequest, never
  // Internal.
  try {
    algo::QueryParams raw = q.params;
    const bool takes_source = r.spec->params.find("source") != nullptr;
    if (takes_source && !raw.has("source")) raw.set("source", q.source);
    r.norm = r.spec->params.validate(raw);
    if (takes_source) r.source = snapshot_source(r.norm, r.snap);
  } catch (const Error& e) {
    throw ServiceError(ErrorCode::BadRequest, e.what());
  }
  r.key = CacheKey::make(r.spec->code, r.norm);
  return r;
}

bool GraphService::probe(const Resolved& q, bool want_payload,
                         QueryResult& r) {
  if (opts_.cache_capacity == 0) return false;
  MutexLock lk(cache_mutex_);
  if (cache_version_ != q.snap.version()) return false;
  const ResultCache::Value* v = cache_.find(q.key);
  if (v == nullptr) return false;
  r.value = v->checksum;
  if (want_payload) r.payload = v->payload;
  return true;
}

algo::QueryPayload GraphService::execute(const Resolved& q,
                                         const QueryContext& ctx,
                                         StageClock& stages) {
  stages.advance(obs::SpanKind::EngineLease, q.snap.version());
  EnginePool::Lease lease = pool_.lease(q.snap);
  // Chaos hook: a query that fails after the lease was taken — the
  // lease must come back via RAII (invariant: outstanding() drains to
  // zero whatever happens below).
  FaultInjector::instance().failure_point(FaultInjector::Hook::QueryThrow,
                                          "query execution");
  stages.advance(obs::SpanKind::Execute, q.snap.version());
  algo::QueryParams exec = q.norm;
  if (q.source) exec.set("source", *q.source);
  // Bind the query's context for the duration of the run: the framework
  // entry points and the algorithms' hand-rolled loops poll it between
  // supersteps, so cancellation / deadline expiry stops the traversal
  // within one superstep. RAII unbind keeps a cancelled run from leaking
  // its context into the engine's next lease.
  Engine::ContextBinding bind(lease.engine(), ctx);
  return q.spec->run(lease.engine(), exec);
}

void GraphService::translate(const Resolved& q, algo::QueryPayload payload,
                             bool want_payload, QueryResult& r) {
  // Chaos hook: allocation failure at the one serve-path allocation that
  // scales with the answer (the per-vertex payload copy).
  FaultInjector::instance().failure_point(FaultInjector::Hook::AllocThrow,
                                          "payload allocation");
  // Nobody sees the payload of a checksum-only query with the cache
  // off: translation is skipped and scalar answers stay cheap.
  const bool cached = opts_.cache_capacity != 0;
  ResultCache::Value v = translated(*q.spec, std::move(payload),
                                    q.snap.perm(), want_payload || cached);
  r.value = v.checksum;
  if (want_payload) r.payload = v.payload;
  if (!cached) return;
  v.code = q.spec->code;
  v.params = q.norm;
  v.read = true;  // a client asked for it this epoch
  MutexLock lk(cache_mutex_);
  if (cache_version_ < q.snap.version()) {
    // First entry for a new epoch (or a publish raced us): start a fresh
    // cache generation.
    cache_.clear();
    cache_version_ = q.snap.version();
  }
  // An older-epoch result is simply not cached: it must never resurrect
  // entries for a superseded graph.
  if (cache_version_ == q.snap.version()) cache_.insert(q.key, std::move(v));
}

void GraphService::settle(Item& item, WorkerState& ws, QueryResult r,
                          std::exception_ptr error, bool shed,
                          std::uint64_t done_ns) {
  ErrorCode code = ErrorCode::Internal;
  if (error) std::tie(error, code) = as_service_error(error);
  {
    MutexLock lk(stats_mutex_);
    --stats_.in_flight;
    if (!error) {
      ++stats_.completed;
      if (r.cache_hit) ++stats_.cache_hits;
    } else {
      ++stats_.failed;
      ++stats_.errors_by_code[code_index(code)];
      if (shed && code == ErrorCode::Cancelled) ++stats_.shed_cancelled;
      if (shed && code == ErrorCode::DeadlineExceeded) ++stats_.shed_deadline;
    }
  }
  if (!item.q.trace)
    settle_sample(item, r.latency_ms, !error, code, error ? 0 : r.version);
  observe_settled(item.q.algo, r.latency_ms,
                  error ? code_index(code) : obs::SlidingWindow::kOk,
                  done_ns);
  // The heartbeat settles BEFORE the promise resolves, like the ledger:
  // a client whose future::get() returned observes in_flight 0 and age
  // 0 for its own query.
  ws.processed.fetch_add(1, std::memory_order_relaxed);
  ws.busy_since_ns.store(WorkerState::kIdle, std::memory_order_release);
  // set_exception, not throw: the worker survives the failure and the
  // client sees it — exactly once each.
  if (error)
    item.promise.set_exception(error);
  else
    item.promise.set_value(std::move(r));
}

void GraphService::settle_sample(Item& item, double latency_ms, bool ok,
                                 ErrorCode code, std::uint64_t version) {
  if (!obs::Tracer::thread_tracing()) return;  // never double-settle
  bool keep = false;
  std::string reason;
  if (!ok) {
    // A failed query IS the forensic case tail sampling exists for.
    keep = true;
    reason = code == ErrorCode::DeadlineExceeded
                 ? "deadline"
                 : std::string("error:") + to_string(code);
  } else {
    const std::uint64_t thr =
        keep_threshold_us_.load(std::memory_order_relaxed);
    if (thr != kNoThreshold &&
        latency_ms * 1000.0 > static_cast<double>(thr)) {
      keep = true;
      reason = "slow";
    }
  }
  // keep=false is the hot path: disarm, retain the ring, copy nothing.
  obs::Trace t = obs::Tracer::end_reusing(keep);
  if (!keep) return;
  obs::CapturedTrace ct;
  ct.trace = std::move(t);
  ct.algo = item.q.algo;
  ct.reason = std::move(reason);
  ct.latency_ms = latency_ms;
  ct.version = version;
  trace_store_.push(std::move(ct));
}

void GraphService::observe_settled(const std::string& algo, double latency_ms,
                                   std::size_t code, std::uint64_t now_ns) {
  latency_.record(now_ns, algo, latency_ms, code);
  if (opts_.telemetry.window) maybe_monitor(now_ns);
}

void GraphService::maybe_monitor(std::uint64_t now_ns) {
  const auto now_us = static_cast<std::int64_t>(now_ns / 1000);
  std::int64_t last = last_monitor_us_.load(std::memory_order_relaxed);
  // The interval is a steady-state rate limit, not a cold-start delay:
  // while the keep threshold is still "failures only" the window hasn't
  // produced keep_min_samples of evidence yet, so re-evaluate on every
  // settle — the first settle past the minimum arms slow-keep. A burst
  // shorter than the interval must not leave the whole run unarmed.
  const bool cold =
      keep_threshold_us_.load(std::memory_order_relaxed) == kNoThreshold;
  if (last != 0 && !cold &&
      static_cast<double>(now_us - last) <
          opts_.telemetry.monitor_interval_ms * 1000.0)
    return;
  // One winner per interval; losers skip (the winner's pass covers them).
  if (!last_monitor_us_.compare_exchange_strong(last, now_us,
                                                std::memory_order_relaxed))
    return;
  const obs::WindowSnapshot w = latency_.snapshot(now_ns);
  // Rolling tail-sampling keep threshold: windowed p99 x factor with an
  // absolute floor; "failures only" until the window has evidence.
  if (w.latency_samples >= opts_.telemetry.keep_min_samples) {
    const double thr_ms = std::max(w.p99_ms * kKeepLatencyFactor,
                                   opts_.telemetry.keep_min_ms);
    keep_threshold_us_.store(static_cast<std::uint64_t>(thr_ms * 1000.0),
                             std::memory_order_relaxed);
  } else {
    keep_threshold_us_.store(kNoThreshold, std::memory_order_relaxed);
  }
  // Anomaly triggers -> the process flight recorder (rate-limited there).
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  if (!rec.armed()) return;
  if (w.total >= opts_.telemetry.anomaly_min_samples &&
      w.error_rate >= opts_.telemetry.anomaly_error_rate)
    rec.trigger("error-rate-spike");
  if (health().oldest_running_ms >= kAnomalyInFlightAgeMs)
    rec.trigger("in-flight-age");
}

GraphService::CacheTurnover GraphService::invalidate_cache() {
  std::size_t wiped = 0;
  {
    MutexLock lk(cache_mutex_);
    wiped = cache_.size();
    // Leave cache_version_ behind the store version; the next miss
    // brings the generation forward.
    if (wiped != 0) cache_.clear();
  }
  if (wiped != 0) {
    MutexLock slk(stats_mutex_);
    ++stats_.invalidations;
  }
  return {0, wiped};
}

GraphService::CacheTurnover GraphService::refresh_cache(
    std::uint64_t prev_version, std::uint64_t new_version,
    const algo::EdgeDelta& delta,
    const std::shared_ptr<const Permutation>& perm, bool perm_stable) {
  // Phase A (cache lock): drain the live generation and open the new
  // one. The generation advances EAGERLY — a concurrent miss computed
  // against the new epoch must land in the new generation, and the
  // reinserts below must find it current.
  std::vector<std::pair<CacheKey, ResultCache::Value>> drained;
  bool stepping = false;
  {
    MutexLock lk(cache_mutex_);
    // A lagging or bypassed generation (version mismatch) holds entries
    // for some OTHER epoch than the one this delta steps from — they
    // can only be dropped.
    stepping = cache_version_ == prev_version;
    drained = cache_.drain();
    if (new_version > cache_version_) cache_version_ = new_version;
  }
  const std::size_t live_before = drained.size();

  // Pick the entries to refresh: those a client read since the previous
  // publish, whose hook can run on this publish. Everything else is
  // freed here, before any hook runs.
  struct Task {
    CacheKey key;
    ResultCache::Value old;  ///< its payload is freed once unneeded
    const algo::AlgorithmSpec* spec = nullptr;
    ResultCache::Value fresh;
    bool ok = false;  ///< the hook ran and `fresh` holds its answer
    double ms = 0;
  };
  std::vector<Task> tasks;
  SnapshotRef snap;
  algo::EdgeDelta snap_delta;
  const algo::EdgeDelta* hook_delta = nullptr;
  if (stepping && !drained.empty()) {
    snap = store_.acquire();
    if (snap && snap.version() == new_version)
      hook_delta = delta_for_hooks(snap.graph(), delta, perm.get(),
                                   opts_.refresh_max_delta_fraction,
                                   snap_delta);
  }
  if (hook_delta != nullptr) {
    for (auto& [key, val] : drained) {
      const algo::AlgorithmSpec* spec = algo::find_spec(val.code);
      if (!val.read || spec == nullptr || !spec->refresh ||
          val.payload == nullptr)
        continue;
      if (spec->refresh_needs_stable_perm && !perm_stable) continue;
      tasks.push_back({std::move(key), std::move(val), spec, {}, false, 0});
    }
  }
  drained.clear();

  // Phase B (no cache lock): run the hooks across the global pool, each
  // task on its own engine leased from the serving pool, writing only
  // its own slot.
  // Query traffic proceeds concurrently — misses for the new epoch just
  // compute-and-insert as usual. Tasks are claimed in index order, so
  // `by_cost` puts the algorithms with the largest mean hook time first
  // (the LPT rule VEBO applies to vertices): the short ones fill in
  // behind them. An algorithm with no history ranks first; the sort is
  // stable, so without history the cache order stands.
  std::vector<std::size_t> by_cost(tasks.size());
  std::iota(by_cost.begin(), by_cost.end(), std::size_t{0});
  if (tasks.size() > 1) {
    std::map<std::string, double> mean_ms;
    for (const RefreshLatency& rl : refresh_latency())
      if (rl.count != 0)
        mean_ms[rl.algo] = rl.total_ms / static_cast<double>(rl.count);
    const auto cost = [&](std::size_t i) {
      const auto it = mean_ms.find(tasks[i].old.code);
      return it != mean_ms.end() ? it->second
                                 : std::numeric_limits<double>::infinity();
    };
    std::ranges::stable_sort(by_cost, std::greater<>{}, cost);
  }
  // Translating under the inverse permutation carries a cached
  // original-id payload into this snapshot's ids; every task shares it.
  const Permutation inv =
      perm != nullptr && !tasks.empty() ? invert(*perm) : Permutation{};
  const auto run = [&](Task& t) {
    try {
      EnginePool::Lease lease = pool_.lease(snap);
      Timer hook;
      // The resolve stage's source mapping: an entry whose source names
      // no vertex of this snapshot throws and is dropped.
      algo::QueryParams exec = t.old.params;
      if (t.spec->params.find("source") != nullptr)
        exec.set("source", snapshot_source(exec, snap));
      // The hook reads the previous payload in THIS snapshot's ids.
      // Translating throws (and drops the entry) when sizes no longer
      // line up — e.g. vertex growth; once it is done, nothing needs the
      // cached original-id payload.
      std::optional<algo::QueryPayload> prev_snap;
      if (perm != nullptr) {
        prev_snap = algo::translate_to_original_ids(*t.old.payload, inv);
        t.old.payload.reset();
      }
      algo::QueryPayload out = [&] {
        obs::StageScope span(obs::SpanKind::Refresh);
        if (span.live()) span.span().a = new_version;
        return t.spec->refresh(lease.engine(), exec,
                               prev_snap ? *prev_snap : *t.old.payload,
                               *hook_delta);
      }();
      lease.release();
      // The replacement exists: nothing needs the previous payload.
      prev_snap.reset();
      t.old.payload.reset();
      // The translate stage a query runs, so a refreshed entry is
      // indistinguishable from a recomputed one.
      t.fresh = translated(*t.spec, std::move(out), perm.get(), /*keep=*/true);
      t.fresh.code = t.old.code;
      t.fresh.params = t.old.params;
      t.ms = hook.elapsed_ms();
      t.ok = true;
    } catch (...) {
      // Refresh is best-effort: a throwing hook degrades to the plain
      // invalidation this entry would have gotten anyway.
      t.old.payload.reset();
    }
  };
  ForOptions fan;  // one task per claim; the writer is worker 0
  fan.schedule = Schedule::Dynamic;
  fan.grain = 1;
  fan.serial_cutoff = 1;
  parallel_for(
      0, tasks.size(), [&](std::size_t i) { run(tasks[by_cost[i]]); }, fan);

  // Phase C (cache lock): reinsert unread, in the old LRU order, unless
  // yet another publish already superseded the generation we refreshed
  // for. A key a client stored for the new epoch meanwhile stays as the
  // client stored it, read mark included.
  CacheTurnover turnover;
  {
    MutexLock lk(cache_mutex_);
    if (cache_version_ == new_version) {
      for (Task& t : tasks) {
        if (!t.ok) continue;
        if (!cache_.contains(t.key)) cache_.insert(t.key, std::move(t.fresh));
        ++turnover.refreshed;
      }
    }
  }
  turnover.dropped = live_before - turnover.refreshed;
  {
    MutexLock slk(stats_mutex_);
    stats_.refreshes += turnover.refreshed;
    // One invalidation per publish that dropped anything — mirrors
    // invalidate_cache's per-wipe (not per-entry) accounting.
    if (turnover.dropped > 0) ++stats_.invalidations;
    for (const Task& t : tasks) {
      if (!t.ok) continue;
      auto& slot = refresh_lat_[t.old.code];
      ++slot.first;
      slot.second += t.ms;
    }
  }
  return turnover;
}

std::vector<GraphService::RefreshLatency> GraphService::refresh_latency()
    const {
  MutexLock lk(stats_mutex_);
  std::vector<RefreshLatency> out;
  out.reserve(refresh_lat_.size());
  for (const auto& [algo, slot] : refresh_lat_)
    out.push_back({algo, slot.first, slot.second});
  return out;  // std::map iteration order == sorted by algo code
}

ServiceHealth GraphService::health() const {
  ServiceHealth h;
  {
    MutexLock lk(queue_mutex_);
    h.accepting = !stopping_;
    h.queue_depth = queue_.size();
  }
  const std::uint64_t now_ns = obs::Tracer::now_ns();
  h.workers.reserve(worker_state_.size());
  for (const auto& ws : worker_state_) {
    WorkerHealth w;
    w.processed = ws->processed.load(std::memory_order_relaxed);
    const std::uint64_t since =
        ws->busy_since_ns.load(std::memory_order_acquire);
    if (since != WorkerState::kIdle) {
      w.busy = true;
      // Clamp: the worker may have stamped after our now_ns read.
      w.busy_ms = now_ns > since ? static_cast<double>(now_ns - since) / 1e6
                                 : 0.0;
      ++h.in_flight;
      h.oldest_running_ms = std::max(h.oldest_running_ms, w.busy_ms);
    }
    h.workers.push_back(w);
  }
  if (opts_.telemetry.window) {
    const obs::WindowSnapshot w = latency_.snapshot(now_ns);
    h.window_samples = w.total;
    h.window_qps = w.qps;
    h.window_error_rate = w.error_rate;
    h.window_p50_ms = w.p50_ms;
    h.window_p95_ms = w.p95_ms;
    h.window_p99_ms = w.p99_ms;
    const obs::SloVerdict s = obs::slo_verdict(w);
    h.availability = s.availability;
    h.burn_rate = s.burn_rate;
    h.slo_healthy = s.healthy;
  }
  h.traces_captured = trace_store_.captured();
  const std::uint64_t thr = keep_threshold_us_.load(std::memory_order_relaxed);
  h.slow_keep_threshold_ms =
      thr == kNoThreshold ? 0 : static_cast<double>(thr) / 1000.0;
  return h;
}

GraphServiceStats GraphService::stats() const {
  GraphServiceStats st;
  {
    MutexLock lk(stats_mutex_);
    st = stats_;
  }
  // Evictions have one home, the cache: a client's insert and a
  // refresh's reinsert can both evict.
  MutexLock lk(cache_mutex_);
  st.evictions = cache_.evictions();
  return st;
}

void GraphService::collect_metrics(std::vector<obs::MetricSample>& out) const {
  using obs::MetricSample;
  using obs::MetricType;
  auto emit = [&out](MetricType type, const char* name, const char* help,
                     double value,
                     std::vector<std::pair<std::string, std::string>> labels =
                         {}) {
    MetricSample s;
    s.name = name;
    s.help = help;
    s.type = type;
    s.labels = std::move(labels);
    s.value = value;
    out.push_back(std::move(s));
  };

  const GraphServiceStats st = stats();
  emit(MetricType::Counter, "vebo_service_submitted_total",
       "queries ever submitted (accepted or rejected)",
       static_cast<double>(st.submitted));
  emit(MetricType::Counter, "vebo_service_rejected_total",
       "submits rejected by backpressure", static_cast<double>(st.rejected));
  emit(MetricType::Counter, "vebo_service_completed_total",
       "queries answered successfully", static_cast<double>(st.completed));
  emit(MetricType::Counter, "vebo_service_failed_total",
       "queries completed exceptionally", static_cast<double>(st.failed));
  emit(MetricType::Gauge, "vebo_service_in_flight",
       "accepted queries not yet settled",
       static_cast<double>(st.in_flight));
  emit(MetricType::Counter, "vebo_service_shed_total",
       "accepted queries shed before execution",
       static_cast<double>(st.shed_deadline), {{"reason", "deadline"}});
  emit(MetricType::Counter, "vebo_service_shed_total",
       "accepted queries shed before execution",
       static_cast<double>(st.shed_cancelled), {{"reason", "cancelled"}});
  for (std::size_t i = 0; i < kNumErrorCodes; ++i)
    emit(MetricType::Counter, "vebo_service_errors_total",
         "failures by ServiceError code",
         static_cast<double>(st.errors_by_code[i]),
         {{"code", to_string(static_cast<ErrorCode>(i))}});

  // Result cache: hits/invalidations come from the service ledger,
  // occupancy and evictions from the cache itself.
  emit(MetricType::Counter, "vebo_cache_hits_total",
       "queries answered from the live cache generation",
       static_cast<double>(st.cache_hits));
  emit(MetricType::Counter, "vebo_cache_invalidations_total",
       "cache generations wiped by publish",
       static_cast<double>(st.invalidations));
  emit(MetricType::Counter, "vebo_cache_refreshes_total",
       "entries refreshed in place across a publish (refresh_on_publish)",
       static_cast<double>(st.refreshes));
  for (const RefreshLatency& rl : refresh_latency()) {
    emit(MetricType::Gauge, "vebo_cache_refresh_latency_ms_sum",
         "total wall time spent in refresh hooks", rl.total_ms,
         {{"algo", rl.algo}});
    emit(MetricType::Gauge, "vebo_cache_refresh_latency_ms_count",
         "refresh-hook invocations", static_cast<double>(rl.count),
         {{"algo", rl.algo}});
  }
  {
    MutexLock lk(cache_mutex_);
    emit(MetricType::Counter, "vebo_cache_evictions_total",
         "entries LRU-evicted from a full cache",
         static_cast<double>(cache_.evictions()));
    emit(MetricType::Gauge, "vebo_cache_entries",
         "live-generation entries resident",
         static_cast<double>(cache_.size()));
  }

  const EnginePoolStats ps = pool_.stats();
  emit(MetricType::Counter, "vebo_pool_engines_created_total",
       "engine contexts ever constructed", static_cast<double>(ps.created));
  emit(MetricType::Counter, "vebo_pool_leases_total",
       "engine leases handed out", static_cast<double>(ps.leases));
  emit(MetricType::Counter, "vebo_pool_rebinds_total",
       "leases that crossed a snapshot version",
       static_cast<double>(ps.rebinds));
  emit(MetricType::Counter, "vebo_pool_waits_total",
       "leases that blocked on a full pool", static_cast<double>(ps.waits));

  const SnapshotStoreStats ss = store_.stats();
  emit(MetricType::Counter, "vebo_snapshots_published_total",
       "epochs ever published", static_cast<double>(ss.published));
  emit(MetricType::Counter, "vebo_snapshots_reclaimed_total",
       "epochs whose last reference dropped",
       static_cast<double>(ss.reclaimed));
  emit(MetricType::Gauge, "vebo_snapshots_live", "published - reclaimed",
       static_cast<double>(ss.live));

  const LatencySummary ls = latency();
  const char* lat_help = "submit-to-completion latency quantiles";
  emit(MetricType::Summary, "vebo_service_latency_ms", lat_help, ls.p50_ms,
       {{"quantile", "0.5"}});
  emit(MetricType::Summary, "vebo_service_latency_ms", lat_help, ls.p95_ms,
       {{"quantile", "0.95"}});
  emit(MetricType::Summary, "vebo_service_latency_ms", lat_help, ls.p99_ms,
       {{"quantile", "0.99"}});
  emit(MetricType::Gauge, "vebo_service_latency_ms_sum",
       "total latency over all samples",
       ls.mean_ms * static_cast<double>(ls.samples));
  emit(MetricType::Gauge, "vebo_service_latency_ms_count",
       "latency samples recorded", static_cast<double>(ls.samples));

  // The always-on window (PR 8): what is happening RIGHT NOW, next to
  // the cumulative trajectory above. Names end in _window so dashboards
  // can't confuse a 10-second rate with a since-boot counter.
  if (opts_.telemetry.window) {
    const obs::WindowSnapshot w = latency_.snapshot(obs::Tracer::now_ns());
    const obs::SloVerdict slo = obs::slo_verdict(w);
    emit(MetricType::Gauge, "vebo_service_qps_window",
         "settled queries per second over the sliding window", w.qps);
    emit(MetricType::Gauge, "vebo_service_error_rate_window",
         "windowed error fraction of settled queries", w.error_rate);
    emit(MetricType::Gauge, "vebo_service_window_samples",
         "settled queries inside the sliding window",
         static_cast<double>(w.total));
    for (std::size_t i = 0; i < kNumErrorCodes && i < w.errors_by_code.size();
         ++i)
      emit(MetricType::Gauge, "vebo_service_errors_window",
           "windowed failures by ServiceError code",
           static_cast<double>(w.errors_by_code[i]),
           {{"code", to_string(static_cast<ErrorCode>(i))}});
    const char* wlat_help = "windowed latency quantiles";
    emit(MetricType::Summary, "vebo_service_latency_ms_window", wlat_help,
         w.p50_ms, {{"quantile", "0.5"}});
    emit(MetricType::Summary, "vebo_service_latency_ms_window", wlat_help,
         w.p95_ms, {{"quantile", "0.95"}});
    emit(MetricType::Summary, "vebo_service_latency_ms_window", wlat_help,
         w.p99_ms, {{"quantile", "0.99"}});
    for (const obs::AlgoWindowStats& a : w.per_algo) {
      const char* alat_help = "windowed latency quantiles per algorithm";
      emit(MetricType::Summary, "vebo_algo_latency_ms_window", alat_help,
           a.p50_ms, {{"algo", a.algo}, {"quantile", "0.5"}});
      emit(MetricType::Summary, "vebo_algo_latency_ms_window", alat_help,
           a.p99_ms, {{"algo", a.algo}, {"quantile", "0.99"}});
    }
    emit(MetricType::Gauge, "vebo_slo_availability_window",
         "1 - windowed error rate", slo.availability);
    emit(MetricType::Gauge, "vebo_slo_burn_rate",
         "windowed error rate / error budget (1.0 = sustainable pace)",
         slo.burn_rate);
  }

  // Tail sampling + flight recorder activity.
  emit(MetricType::Counter, "vebo_traces_captured_total",
       "tail-sampled traces kept (slow / deadline / failed)",
       static_cast<double>(trace_store_.captured()));
  emit(MetricType::Gauge, "vebo_traces_stored",
       "keeper traces resident in the trace store",
       static_cast<double>(trace_store_.size()));
  emit(MetricType::Counter, "vebo_recorder_dumps_total",
       "flight-recorder dumps taken (process-wide)",
       static_cast<double>(obs::FlightRecorder::instance().dumps()));
}

}  // namespace vebo::serve
