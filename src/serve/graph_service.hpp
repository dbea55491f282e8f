// GraphService: a multi-client query-serving front end over the snapshot
// store and engine pool — the subsystem that turns the single-caller
// framework into a concurrent read path.
//
// Topology:
//
//   writer thread                         client threads (any number)
//   ─────────────                         ──────────────────────────
//   StreamSession::apply(batch)           service.submit({algo, src})
//        │                                     │        future<QueryResult>
//        ▼                                     ▼
//   publish_session() ──► SnapshotStore   bounded MPMC queue ──► workers
//        (new epoch,       (epoch refs)        │ (explicit rejection
//         cache cleared)        ▲              │  when full — never
//                               └── acquire ───┘  silent blocking)
//                                    │
//                             EnginePool::lease (per-query engine,
//                             rebind-on-version-change, PR-1 scratch kept)
//
// Admission control: in-flight work is bounded by `workers` executing
// queries plus `queue_capacity` waiting ones. A submit that finds the
// queue full is rejected with SubmitStatus::QueueFull so callers see
// backpressure explicitly and can shed or retry — the queue never blocks
// a client.
//
// Queries are typed (the algorithms/query.hpp protocol): a registry code
// plus a QueryParams set validated against the algorithm's ParamSchema
// (unknown/ill-typed params fail the future with vebo::Error), and a
// ResultKind selecting the answer shape — the legacy checksum scalar, or
// the algorithm's typed QueryPayload (per-vertex vectors, top-k lists).
//
// Results are futures. Each completed query reports the epoch version it
// ran on, its submit-to-completion latency (recorded into the latency
// sink; p50/p95/p99 via latency()), and whether it was served from the
// version-keyed result cache. The cache is keyed canonically on
// (code, validated params) — spelling, ordering, and default-reliance
// cannot split semantically identical queries — holds results for the
// current epoch only, and is wiped on publish (or, with
// refresh_on_publish, the entries read since the previous publish are
// refreshed in place for the new epoch); within an
// epoch, overflow evicts LRU entries (stats: `evictions`, distinct from
// `invalidations`). A cached value can never outlive the graph state it
// was computed on.
//
// Query.source / params["source"] and every vertex id inside a returned
// payload are in ORIGINAL vertex ids when the published snapshot carries
// a permutation (publish_session attaches the maintained VEBO ordering);
// otherwise ids name snapshot vertices directly. Per-vertex payloads are
// translated back to original ids exactly once, inside the worker that
// computed them (never under the cache lock); scalar answers skip
// translation entirely.
// Overload behavior (PR 6): queries may carry a deadline and a cancel
// token. A deadline that lapses while the query is queued sheds it before
// any execution (fails fast with ErrorCode::DeadlineExceeded); a running
// query observes cancellation/deadline at its next edge_map superstep
// via the QueryContext bound to the leased engine. Every serve-path
// failure is a ServiceError with a machine-readable code, counted
// per-code in GraphServiceStats. health() reports queue depth, in-flight
// count, the oldest running query's age, and a per-worker heartbeat.
//
// A worker runs each query as explicit stages: shed (a lapsed deadline
// or a fired cancel fails it unrun) -> resolve (pin the epoch, validate
// the params) -> probe (the cache) -> execute (lease an engine, run) ->
// translate (checksum, original ids, cache insert) -> settle (ledger,
// latency sink, tail sample, window, heartbeat, then the promise). One
// driver owns stage timing: each boundary stamp ends one stage span and
// starts the next, so QueueWait, CacheProbe (resolve + probe),
// EngineLease, Execute and Translate tile the query's latency exactly,
// and a cache hit reads the clock only at pickup and at completion.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/query.hpp"
#include "framework/cancel.hpp"
#include "graph/permute.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "serve/engine_pool.hpp"
#include "serve/result_cache.hpp"
#include "serve/service_error.hpp"
#include "serve/snapshot_store.hpp"
#include "stream/session.hpp"
#include "support/annotated_mutex.hpp"
#include "support/histogram.hpp"
#include "support/timer.hpp"

namespace vebo::serve {

/// Always-on telemetry (the PR 8 layer). Everything here defaults ON —
/// this is the production configuration whose cost bench_obs_overhead
/// budgets at <=3% on both guarded op points.
struct TelemetryOptions {
  /// Tail sampling: EVERY query runs under a reusable per-worker trace
  /// ring (4096 spans, no per-query allocation); at completion the
  /// service decides keep or drop. Kept into trace_store() (the last 32):
  /// queries slower than the rolling threshold (windowed p99 x 3,
  /// floored at keep_min_ms), deadline hits, and ServiceError failures.
  /// Dropped: everything else, for the cost of a few clock reads.
  /// Explicit Query::trace still wins (full-size ring, trace on the
  /// result).
  bool tail_sampling = true;
  /// Absolute floor for the slow-keep threshold so cache-hit jitter on
  /// a microsecond-scale p99 cannot flood the store.
  double keep_min_ms = 1.0;
  /// Until the window holds this many latency samples there is no p99
  /// worth multiplying: only failures are kept.
  std::uint64_t keep_min_samples = 50;
  /// Sliding-window monitoring: qps, per-ErrorCode error rate, latency
  /// quantiles per algorithm over the last buckets x bucket_ns. Feeds
  /// health(), the *_window metric gauges, and the SLO burn rate (the
  /// default obs::SloConfig: 99.9% availability, no latency SLO). Off,
  /// the latency sink keeps only the cumulative view behind latency().
  bool window = true;
  /// error_codes is overridden with kNumErrorCodes at construction.
  obs::WindowOptions window_opts;
  /// Completion-time monitoring cadence: the rolling keep threshold and
  /// the anomaly checks run at most once per this interval.
  double monitor_interval_ms = 100;
  /// Anomaly triggers for the process flight recorder (no-ops unless
  /// obs::FlightRecorder::instance() is armed): windowed error rate >=
  /// anomaly_error_rate over >= anomaly_min_samples, or an in-flight
  /// query older than 1 s. The publish path triggers on a publish slower
  /// than 250 ms.
  double anomaly_error_rate = 0.5;
  std::uint64_t anomaly_min_samples = 20;
};

struct GraphServiceOptions {
  /// Worker threads executing queries (= max concurrently running).
  std::size_t workers = 4;
  /// Pending-query bound; submits beyond it are rejected (backpressure).
  std::size_t queue_capacity = 64;
  /// Engine pool configuration. max_engines is raised to `workers` if
  /// smaller so no worker can deadlock waiting for an engine.
  EnginePoolOptions engine;
  /// Result cache over canonical (code, validated params) keys for the
  /// current epoch. Sized in entries; wiped on publish, LRU-evicted on
  /// overflow.
  bool enable_cache = true;
  std::size_t cache_capacity = 4096;
  /// Opt-in incremental maintenance (PR 10): publishes that carry an
  /// edge delta (publish_session, or publish(..., delta)) refresh cache
  /// entries whose algorithm has an AlgorithmSpec::refresh hook — warm-
  /// started from the previous epoch's payload, re-keyed to the new
  /// epoch — instead of dropping them. Refresh work follows reads: only
  /// entries a client asked for since the previous publish (a miss that
  /// stored them, or a hit) are refreshed, so an answer nobody reads
  /// again is dropped at the publish after its last read. The hooks run
  /// concurrently on the global pool (VEBO_THREADS wide), longest first.
  /// Entries without a hook (or whose refresh preconditions fail) are
  /// invalidated exactly as before. Refreshed answers are full-fidelity
  /// results for the new epoch (refresh == recompute is the contract,
  /// see ROADMAP "Incremental maintenance"). Off by default: every
  /// publish then invalidates.
  bool refresh_on_publish = false;
  /// Refresh is only worthwhile for small deltas: when the net delta
  /// exceeds this fraction of the new snapshot's edges, the publish
  /// falls back to a plain invalidation (and each algorithm's hook
  /// additionally falls back to a full run past its own threshold).
  double refresh_max_delta_fraction = 0.05;
  /// Optional metrics plane: when set, the service registers one
  /// collector that exposes every GraphServiceStats field (including
  /// errors_by_code), the cache size/evictions, the engine-pool
  /// lease/rebind counters, the snapshot-store publish/reclaim counters,
  /// and the latency summary through the registry's exposition. The
  /// registry must outlive the service.
  obs::MetricsRegistry* metrics = nullptr;
  /// The always-on telemetry layer (tail sampling, sliding window, SLO,
  /// anomaly triggers). On by default; see TelemetryOptions.
  TelemetryOptions telemetry;
};

/// What shape of answer the client wants back.
enum class ResultKind : std::uint8_t {
  Checksum,  ///< QueryResult::value only (legacy scalar surface)
  Payload,   ///< also attach the typed QueryPayload in original ids
};

struct Query {
  Query() = default;
  /// The `{algo, source}` shorthand used throughout: a converting
  /// constructor (not aggregate init) so partial braces stay clean
  /// under -Werror=missing-field-initializers.
  Query(std::string algo_code, VertexId src = 0)
      : algo(std::move(algo_code)), source(src) {}

  std::string algo;     ///< registry code: "BFS", "CC", "PR", ...
  VertexId source = 0;  ///< legacy source shorthand; see `params`
  /// Typed parameters, validated against the algorithm's ParamSchema.
  /// When the schema takes a "source" and the map does not set one, the
  /// legacy `source` field is used — params win if both are given.
  /// Vertex-id params are in the header comment's id space.
  algo::QueryParams params;
  ResultKind result = ResultKind::Checksum;
  /// Relative deadline from submit; 0 = none. Expired-while-queued
  /// queries are shed before execution; expiry mid-run is observed at
  /// the next superstep. Both fail with ErrorCode::DeadlineExceeded. A
  /// budget the steady clock cannot represent from now (~292 years, or
  /// +inf) also means no deadline.
  double deadline_ms = 0;
  /// Cooperative cancel handle (CancelSource::token()). Default tokens
  /// can never fire. Cancellation is observed within one superstep and
  /// fails the future with ErrorCode::Cancelled.
  CancelToken cancel;
  /// Opt this query into execution tracing: the worker runs it under an
  /// armed tracer and QueryResult::trace carries the spans (queue wait,
  /// cache probe, engine lease, execute with every framework step,
  /// translate). Untraced queries pay one relaxed atomic load per step.
  bool trace = false;
};

struct QueryResult {
  double value = 0;            ///< checksum fold of the payload
  /// The typed payload in original vertex ids; set iff the query asked
  /// for ResultKind::Payload. Shared with the result cache — treat as
  /// immutable.
  std::shared_ptr<const algo::QueryPayload> payload;
  std::uint64_t version = 0;   ///< epoch the query ran on
  bool cache_hit = false;
  double latency_ms = 0;       ///< submit -> completion, queue wait included
  /// The execution trace; set iff the query asked for Query::trace and
  /// completed successfully. Export with obs::to_chrome_trace_json().
  std::shared_ptr<const obs::Trace> trace;
};

enum class SubmitStatus : std::uint8_t { Accepted, QueueFull, Stopped };
const char* to_string(SubmitStatus s);

struct Submission {
  SubmitStatus status = SubmitStatus::Stopped;
  std::future<QueryResult> result;  ///< valid iff accepted()
  bool accepted() const { return status == SubmitStatus::Accepted; }
};

/// Service counters. Snapshots from stats() are internally consistent:
/// every ledger transition happens in one stats-mutex critical section,
/// so `submitted == completed + failed + rejected + in_flight` holds for
/// ANY observer at ANY instant — never just eventually.
struct GraphServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;   ///< backpressure rejections
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;     ///< completed exceptionally
  /// Accepted queries whose outcome is not yet decided (queued or
  /// executing). The balancing term of the ledger invariant above.
  std::uint64_t in_flight = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t invalidations = 0;  ///< cache wipes (publish / epoch change)
  std::uint64_t evictions = 0;      ///< single entries LRU-evicted when full
  /// Entries carried across a publish by in-place recompute
  /// (refresh_on_publish). Distinct from invalidations: a refreshing
  /// publish that keeps every entry counts zero invalidations; one that
  /// drops any entry (unread since the previous publish, no hook, failed
  /// precondition, oversized delta) still counts one invalidation for
  /// the wipe of the dropped set.
  std::uint64_t refreshes = 0;
  /// Accepted queries shed before execution (deadline lapsed / cancelled
  /// while queued). Every shed is also counted in `failed` (the future
  /// resolves exceptionally).
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_cancelled = 0;
  /// Failures by ServiceError code; indexed by static_cast<ErrorCode>.
  /// Sums to `failed` plus the Overloaded count of rejected submits
  /// (which carry no future and are not in `failed`).
  std::array<std::uint64_t, kNumErrorCodes> errors_by_code{};

  std::uint64_t errors(ErrorCode c) const {
    return errors_by_code[static_cast<std::size_t>(c)];
  }
};

/// One worker's heartbeat: queries it has finished and what it is doing
/// right now. `busy_ms` is the age of the query it is running (0 idle).
struct WorkerHealth {
  std::uint64_t processed = 0;
  bool busy = false;
  double busy_ms = 0;
};

/// Point-in-time service health for external monitoring / load shedding.
struct ServiceHealth {
  bool accepting = false;        ///< false once stop() began
  std::size_t queue_depth = 0;   ///< queries waiting (not yet picked up)
  std::size_t in_flight = 0;     ///< queries currently executing
  /// Age of the oldest currently-running query (0 when idle). A large
  /// value with a deep queue is the overload signal.
  double oldest_running_ms = 0;
  std::vector<WorkerHealth> workers;
  /// Sliding-window view (telemetry.window; zeros when off or empty).
  std::uint64_t window_samples = 0;
  double window_qps = 0;
  double window_error_rate = 0;
  double window_p50_ms = 0, window_p95_ms = 0, window_p99_ms = 0;
  /// SLO verdict over the window (the default obs::SloConfig).
  double availability = 1.0;
  double burn_rate = 0;
  double latency_burn_rate = 0;
  bool slo_healthy = true;
  /// Tail sampling: traces kept so far, and the current slow-keep
  /// threshold (0 = window still warming up, only failures kept).
  std::uint64_t traces_captured = 0;
  double slow_keep_threshold_ms = 0;
};

/// Submit-to-completion latency of every successful query.
using LatencySummary = obs::LatencySummary;

class GraphService {
 public:
  /// The store is shared infrastructure (writer publishes into it, other
  /// services may read it) and must outlive the service.
  explicit GraphService(SnapshotStore& store, GraphServiceOptions opts = {});
  ~GraphService();

  GraphService(const GraphService&) = delete;
  GraphService& operator=(const GraphService&) = delete;

  /// Non-blocking admission. Rejections carry no future.
  Submission submit(Query q) EXCLUDES(queue_mutex_, stats_mutex_);

  /// Convenience: submit and wait; throws ServiceError(Overloaded) when
  /// the submit is rejected and rethrows query failures. Backoff and
  /// retry are the caller's policy.
  QueryResult query(Query q);

  /// Publishes a new epoch into the store and invalidates (or, in
  /// refresh mode, refreshes) the result cache. `perm` (optional) maps
  /// original ids -> snapshot positions so clients keep addressing
  /// vertices by original id. `delta` (optional,
  /// ORIGINAL id space, net across batches) enables the refresh-on-
  /// publish path when opts.refresh_on_publish is set; it is only read
  /// during the call.
  std::uint64_t publish(std::shared_ptr<const Graph> graph,
                        order::Partitioning partitioning,
                        std::shared_ptr<const Permutation> perm = nullptr,
                        const algo::EdgeDelta* delta = nullptr);

  /// Publishes the session's current version: reordered shared snapshot,
  /// maintained partitioning, and the VEBO permutation. Writer-thread
  /// API (same thread that calls session.apply()). Drains the session's
  /// accumulated net edge delta and feeds it to the refresh-on-publish
  /// path (drained regardless of the option, so deltas never pile up
  /// across a mode change).
  std::uint64_t publish_session(stream::StreamSession& session);

  /// Per-algorithm refresh cost accounting (refresh-on-publish mode):
  /// how many entries were refreshed for `algo` and the total wall time
  /// spent in their refresh hooks, summed per hook (a publish runs its
  /// hooks side by side, so the sum can exceed its wall time). The mean
  /// orders the next publish's hooks, longest first. Sorted by algo code.
  struct RefreshLatency {
    std::string algo;
    std::uint64_t count = 0;
    double total_ms = 0;
  };
  std::vector<RefreshLatency> refresh_latency() const EXCLUDES(stats_mutex_);

  /// Stops accepting work, drains the queue, joins the workers. Idempotent;
  /// also run by the destructor.
  void stop() EXCLUDES(stop_mutex_, queue_mutex_);

  GraphServiceStats stats() const EXCLUDES(stats_mutex_);
  LatencySummary latency() const { return latency_.cumulative(); }
  ServiceHealth health() const EXCLUDES(queue_mutex_);
  const SnapshotStore& store() const { return store_; }
  const EnginePool& engine_pool() const { return pool_; }
  /// The tail-sampling sink: the last 32 keeper traces (slow /
  /// deadline / failed queries), captured with zero Query::trace opt-in.
  /// Export entries with obs::to_chrome_trace_json.
  const obs::TraceStore& trace_store() const { return trace_store_; }

 private:
  struct Item {
    Query q;
    std::promise<QueryResult> promise;
    /// Submit stamp (steady-clock ns): where the latency and the
    /// queue-wait span start, and the tail-sampled trace's base.
    std::uint64_t enqueued_ns = 0;
    /// Deadline (absolute, fixed at submit) + the client's cancel token;
    /// polled by the shed stage and, via the engine binding, at every
    /// superstep of the run.
    QueryContext ctx;
  };

  /// Per-worker heartbeat: queries finished, and the pickup stamp
  /// (steady-clock ns) of the query being run, kIdle between queries.
  struct WorkerState {
    static constexpr std::uint64_t kIdle = 0;
    std::atomic<std::uint64_t> processed{0};
    std::atomic<std::uint64_t> busy_since_ns{kIdle};
  };

  /// A query bound to the epoch it runs on: the resolve stage's output.
  struct Resolved;
  /// The stage driver's clock: stage spans and their boundary stamps.
  class StageClock;

  void worker_loop(std::size_t worker_idx) EXCLUDES(queue_mutex_);
  /// Runs one picked-up query through its stages: shed -> resolve ->
  /// probe -> execute -> translate -> settle. Whatever a stage throws
  /// ends the run early; every run ends in settle().
  void process(Item& item, WorkerState& ws, std::uint64_t pickup_ns)
      EXCLUDES(queue_mutex_, stats_mutex_, cache_mutex_);
  /// Pins the current epoch, finds the algorithm and validates the
  /// params (BadRequest on failure, NoSnapshot before any publish).
  Resolved resolve(const Query& q) const;
  /// Looks the query up in the live cache generation; fills `r` on a hit.
  bool probe(const Resolved& q, bool want_payload, QueryResult& r)
      EXCLUDES(cache_mutex_);
  /// Leases an engine and runs the query on it (a miss).
  algo::QueryPayload execute(const Resolved& q, const QueryContext& ctx,
                             StageClock& stages);
  /// Checksums and translates a computed payload into `r` and caches it.
  void translate(const Resolved& q, algo::QueryPayload payload,
                 bool want_payload, QueryResult& r)
      EXCLUDES(cache_mutex_, stats_mutex_);
  /// The one exit for every accepted query, success or failure: books
  /// the ledger, settles the tail sample, records the latency sink and
  /// window, stamps the worker idle, and only then resolves the promise
  /// — a client whose future::get() returned must observe itself gone
  /// from stats() and health(). `shed` = the run ended in the shed stage.
  void settle(Item& item, WorkerState& ws, QueryResult r,
              std::exception_ptr error, bool shed, std::uint64_t done_ns)
      EXCLUDES(queue_mutex_, stats_mutex_);
  /// Tail-sampling keep/drop decision at completion: failures and
  /// deadline hits always keep; successes keep iff over the rolling
  /// threshold. Ends the worker's reusable trace either way.
  void settle_sample(Item& item, double latency_ms, bool ok, ErrorCode code,
                     std::uint64_t version);
  /// Books one settled query (completion, failure, rejection) into the
  /// latency sink and window, then runs the rate-limited monitor pass.
  /// `code` is an ErrorCode index or SlidingWindow::kOk.
  void observe_settled(const std::string& algo, double latency_ms,
                       std::size_t code, std::uint64_t now_ns)
      EXCLUDES(queue_mutex_);
  /// Rate-limited (monitor_interval_ms) in steady state; while the keep
  /// threshold is still unset (window short of keep_min_samples) it
  /// re-evaluates on every settle so slow-keep arms as soon as there is
  /// evidence. Recomputes the tail-sampling keep threshold from the
  /// windowed p99 and fires the flight-recorder anomaly triggers.
  void maybe_monitor(std::uint64_t now_ns) EXCLUDES(queue_mutex_);
  /// What one publish did to the live cache generation: entries carried
  /// into the new epoch and entries dropped. The Publish span exports
  /// them as "refreshed" and "dropped".
  struct CacheTurnover {
    std::uint64_t refreshed = 0;
    std::uint64_t dropped = 0;
  };
  CacheTurnover invalidate_cache() EXCLUDES(cache_mutex_, stats_mutex_);
  /// The refresh-on-publish path (replaces invalidate_cache on a
  /// delta-carrying publish in refresh mode). Phase A drains the live
  /// generation under the cache lock and opens the new one; the entries
  /// that will not be refreshed are freed right after it. Phase B
  /// recomputes, outside the lock, every entry a client read since the
  /// previous publish whose algorithm has an AlgorithmSpec::refresh hook:
  /// the hooks run concurrently across the global pool, longest mean
  /// hook time first, each task on its own engine leased from the pool
  /// (waiting, like a query, when every engine is busy), and each
  /// previous payload is freed as soon as its replacement exists. Phase C
  /// reinserts the results unread, in the old LRU order, keyed to
  /// `new_version`. Unread, hook-less and failed entries are dropped
  /// (counted as one invalidation if any). `delta` is in ORIGINAL ids;
  /// `perm` is the newly published permutation. `prev_version` and
  /// `perm_stable` describe the epoch the publish superseded, as the
  /// store held it: a generation cached for that version steps forward,
  /// and its refresh_needs_stable_perm entries are refreshed only when
  /// that epoch's permutation equals `perm` (publish compares them).
  CacheTurnover refresh_cache(std::uint64_t prev_version,
                              std::uint64_t new_version,
                              const algo::EdgeDelta& delta,
                              const std::shared_ptr<const Permutation>& perm,
                              bool perm_stable)
      EXCLUDES(cache_mutex_, stats_mutex_);
  /// Emits every service/cache/pool/snapshot stat as metric samples
  /// (the collector registered when options.metrics is set).
  void collect_metrics(std::vector<obs::MetricSample>& out) const
      EXCLUDES(cache_mutex_, stats_mutex_);

  SnapshotStore& store_;
  GraphServiceOptions opts_;
  EnginePool pool_;

  mutable Mutex queue_mutex_;  ///< mutable: health() reads depth
  std::condition_variable queue_cv_;
  std::deque<Item> queue_ GUARDED_BY(queue_mutex_);
  bool stopping_ GUARDED_BY(queue_mutex_) = false;
  Mutex stop_mutex_;  ///< serializes stop() callers (idempotence)
  std::vector<std::thread> workers_;
  /// Heartbeats, one per worker; stable addresses (vector of unique_ptr
  /// because atomics are not movable).
  std::vector<std::unique_ptr<WorkerState>> worker_state_;

  /// Single-epoch result cache: entries are valid for `cache_version_`
  /// only. Lookups that observe a newer epoch clear it lazily, so even a
  /// publish bypassing this service (straight into the store) cannot
  /// cause a stale hit. Within an epoch the cache LRU-evicts.
  mutable Mutex cache_mutex_;
  std::uint64_t cache_version_ GUARDED_BY(cache_mutex_) = 0;
  ResultCache cache_ GUARDED_BY(cache_mutex_);

  /// Lock order: the ledger nests stats_mutex_ INSIDE queue_mutex_
  /// (submit counts admission before a worker can pop the item); nothing
  /// ever takes queue_mutex_ while holding stats_mutex_.
  mutable Mutex stats_mutex_ ACQUIRED_AFTER(queue_mutex_);
  GraphServiceStats stats_ GUARDED_BY(stats_mutex_);
  /// Per-algo refresh cost: code -> (count, total ms). Feeds
  /// refresh_latency() and the vebo_cache_refresh_latency_ms_* metrics.
  std::map<std::string, std::pair<std::uint64_t, double>> refresh_lat_
      GUARDED_BY(stats_mutex_);

  /// Always-on telemetry state. The latency sink is the one home of
  /// latency: cumulative (latency()) always, windowed (health(), the
  /// *_window metrics, the monitor pass) when telemetry.window is on.
  obs::SlidingWindow latency_;
  const obs::SloTracker slo_;
  obs::TraceStore trace_store_;
  /// Rolling slow-keep threshold in us; kNoThreshold = window warming
  /// up, only failures keep. Written by maybe_monitor, read relaxed at
  /// every completion.
  static constexpr std::uint64_t kNoThreshold = ~std::uint64_t{0};
  std::atomic<std::uint64_t> keep_threshold_us_{kNoThreshold};
  std::atomic<std::int64_t> last_monitor_us_{0};

  /// Declared last so it deregisters first on destruction: an in-flight
  /// scrape (which holds the registry mutex) finishes before any other
  /// member is torn down.
  obs::MetricsRegistry::Registration metrics_reg_;
};

}  // namespace vebo::serve
