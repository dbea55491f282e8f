// Flight recorder: the always-armed black box. "What was the process
// doing in the few seconds BEFORE the incident?"
//
// Per-query tracing (trace.hpp) answers "where did THIS query's time
// go" — it needs a query to point at. The flight recorder inverts that:
// once armed it continuously records COARSE spans (serve/stream stage
// granularity only — queue wait, cache probe, engine lease, execute,
// translate, apply_batch, snapshot, compact, vebo_refine, publish;
// NEVER framework steps inside dense kernels) from every thread into
// small per-thread rings that hold the last few seconds. Nothing is
// exported until something goes wrong: an anomaly trigger (error-rate
// spike, publish stall, in-flight age — wired in graph_service — or an
// explicit dump()) freezes the rings and snapshots every span inside
// the window into one multi-thread Chrome trace.
//
// Cost contract (the PR 7 invariant, extended): a stage site is a
// StageScope — when NOTHING is armed it pays exactly one relaxed load
// of the same packed word SpanScope checks (detail::g_active_traces) and
// branches away. When armed, recording a span takes two clock reads
// plus one briefly-held uncontended per-thread mutex — stage spans are
// microseconds-to-milliseconds long, so this stays far inside the <=3%
// budget bench_obs_overhead enforces in the armed configuration.
//
// Threading: each recording thread owns a ring (the tracer's SpanRing
// type) guarded by its own mutex, registered process-wide on first
// record. The mutex is uncontended on the record path (only dump() ever
// takes it from another thread — that's the "freeze"); rings of exited
// threads stay dumpable until their newest span ages out of the window,
// then are pruned.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "support/annotated_mutex.hpp"

namespace vebo::obs {

namespace detail {
/// The armed RecorderOptions::min_span_ns, mirrored into an atomic so
/// span routing (StageScope / record_stage) reads it with one relaxed
/// load instead of touching the recorder singleton.
inline std::atomic<std::uint64_t> g_recorder_min_span_ns{0};
}  // namespace detail

struct RecorderOptions {
  /// Spans retained per thread. At serving stage rates (a handful of
  /// spans per query) the default covers several seconds of a busy
  /// worker in ~180KB.
  std::size_t ring_capacity = 2048;
  /// Dump horizon: spans whose END falls within this much of the dump
  /// stamp are exported. The rings may hold more (export filters) or
  /// less (ring wrapped) than the window.
  std::uint64_t window_ns = 5'000'000'000;
  /// Rate limit for trigger(): anomaly dumps closer together than this
  /// are dropped (the first dump already covers the incident window —
  /// a storm must not turn the black box into a firehose).
  std::uint64_t min_trigger_gap_ns = 1'000'000'000;
  /// Stage spans SHORTER than this skip the recorder sink (per-query
  /// traces still get them — the floor applies only to StageScope /
  /// record_stage routing, never to direct record() calls). Two jobs:
  /// it keeps the armed hot path from paying the ring write for spans
  /// that could never explain a second-scale incident, and it keeps the
  /// ring covering SECONDS — at serving rates, unfiltered cache-hit
  /// micro-spans wrap a 2048-slot ring in milliseconds and flush the
  /// incident window the black box exists to hold. Set 0 to keep all.
  std::uint64_t min_span_ns = 100'000;
};

struct RecordedSpan {
  Span span;
  std::uint32_t tid = 0;  ///< recorder-assigned thread id (1-based)
};

/// One frozen window: every in-window span across all threads, in start
/// order. Export with to_chrome_trace_json(const FlightDump&).
struct FlightDump {
  std::uint64_t seq = 0;       ///< 1-based dump number
  std::uint64_t taken_ns = 0;  ///< steady-clock dump stamp
  std::uint64_t window_ns = 0;
  std::string reason;          ///< trigger reason ("manual", "error-rate-spike", ...)
  std::vector<RecordedSpan> spans;
  std::uint64_t threads = 0;   ///< rings that contributed
  /// Spans overwritten by ring wrap since arm (across all live rings):
  /// > 0 means busy threads outran their rings and the window may be
  /// truncated at the old end.
  std::uint64_t dropped = 0;
};

class FlightRecorder {
 public:
  static FlightRecorder& instance();

  /// Arms the recorder (idempotent; re-arming updates the options and
  /// resizes live rings). Sets the recorder bit in the packed armed
  /// word, so disarmed StageScope sites stay at one relaxed load.
  void arm(RecorderOptions opts = {}) EXCLUDES(mutex_);
  void disarm() EXCLUDES(mutex_);
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Appends a span to the calling thread's ring; no-op when disarmed.
  /// Called by StageScope / record_stage, not usually directly.
  void record(const Span& s) EXCLUDES(mutex_);

  /// Freezes every ring and exports the window. Always dumps (no rate
  /// limit) — this is the explicit-ask path. Stored as last_dump().
  FlightDump dump(const std::string& reason = "manual") EXCLUDES(mutex_);

  /// Anomaly entry point: like dump() but rate-limited by
  /// min_trigger_gap_ns. Returns whether a dump was actually taken.
  bool trigger(const std::string& reason) EXCLUDES(mutex_);

  FlightDump last_dump() const EXCLUDES(mutex_);
  /// dumps ever taken (manual + triggered)
  std::uint64_t dumps() const EXCLUDES(mutex_);
  /// trigger() calls that fired
  std::uint64_t triggers() const EXCLUDES(mutex_);

 private:
  struct Ring {
    Mutex mutex;  ///< freeze lock: uncontended except during a dump
    SpanRing spans GUARDED_BY(mutex);
    std::uint32_t tid = 0;
    /// Steady stamp when the owning thread exited; 0 = alive. Retired
    /// rings are pruned once older than the window.
    std::atomic<std::uint64_t> retired_ns{0};
  };

  FlightRecorder() = default;

  /// The calling thread's ring, registering it on first use.
  Ring& local_ring() EXCLUDES(mutex_);
  FlightDump take_dump(const std::string& reason) REQUIRES(mutex_);

  mutable Mutex mutex_;  ///< registry + dump bookkeeping
  std::vector<std::shared_ptr<Ring>> rings_ GUARDED_BY(mutex_);
  RecorderOptions opts_ GUARDED_BY(mutex_);
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> last_trigger_ns_{0};
  std::uint64_t dump_seq_ GUARDED_BY(mutex_) = 0;
  std::uint64_t triggers_ GUARDED_BY(mutex_) = 0;
  FlightDump last_dump_ GUARDED_BY(mutex_);
  std::atomic<std::uint32_t> next_tid_{1};

  friend struct RecorderTls;  // thread-exit retirement
};

/// RAII stage span feeding BOTH armed sinks: the calling thread's trace
/// (per-query tracing / tail sampling) and the flight recorder. Dead at
/// one relaxed load of the packed armed word when neither is on. Use at
/// serve/stream STAGE sites only — framework step sites keep SpanScope,
/// which is recorder-blind by design.
class StageScope {
 public:
  explicit StageScope(SpanKind kind) {
    // One relaxed load when disarmed — AND one when armed: init derives
    // both sink flags from this same word instead of consulting the
    // recorder singleton again.
    const std::uint32_t armed =
        detail::g_active_traces.load(std::memory_order_relaxed);
    if (armed == 0) return;
    init(kind, armed);
  }
  ~StageScope() {
    if (live()) finish();
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  bool live() const { return to_trace_ || to_recorder_; }
  /// The span under construction; meaningful only when live().
  Span& span() { return span_; }

 private:
  void init(SpanKind kind, std::uint32_t armed_word);
  void finish();

  Span span_{};
  bool to_trace_ = false;
  bool to_recorder_ = false;
};

/// Routes a caller-stamped span (start/duration measured manually, e.g.
/// the serve stages' boundary stamps) to both armed sinks, as
/// StageScope does for a scoped one. Call only after checking
/// stage_wanted().
void record_stage(const Span& s);

/// True iff record_stage() would reach at least one sink from the
/// calling thread: the flight recorder, or the thread's OWN live trace.
/// Sharper than a nonzero armed word, which also shows when some OTHER
/// thread is merely registered for tail sampling — use this to gate
/// work (clock reads, span assembly) done purely to feed a span.
inline bool stage_wanted() {
  const std::uint32_t armed =
      detail::g_active_traces.load(std::memory_order_relaxed);
  if ((armed & detail::kRecorderArmedBit) != 0) return true;
  return (armed & (detail::kRecorderArmedBit - 1)) != 0 &&
         detail::thread_tracing_slow();
}

/// Multi-thread Chrome export of a frozen window: one "pid", one timeline
/// row per recorded thread, timestamps relative to the window start.
std::string to_chrome_trace_json(const FlightDump& d);

}  // namespace vebo::obs
