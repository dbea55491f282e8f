// Shared pieces of the end-to-end benchmark: run options, the metric
// ledger a workload fills, the span log behind the traced mode, and
// small statistics helpers.
//
// Every timestamp comes from obs::Tracer::now_ns() (the repo's steady
// clock), so spans and metrics share one time base.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/annotated_mutex.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its Chrome trace (relative to the cwd).
  std::string out_dir = ".bench_out";
};

/// One reported number: value, unit, and how many samples it summarizes.
struct Metric {
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

/// What one workload run produces. `attempted`/`failed` count client
/// queries; a check failure marks the run incorrect and says why.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  void fail_check(const std::string& why);
  bool correct() const { return check_failures.empty(); }
  void layer(const std::string& name, double value, const std::string& unit,
             std::size_t samples = 1) {
    per_layer[name] = {value, unit, samples};
  }
};

// ---------------------------------------------------------------- spans

/// One traced interval: a call into a layer (named "<layer>.<call>") or
/// an end-to-end unit of work (a bare name: "setup", "query", "publish").
struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t tag = 0;     ///< query index, epoch, or round
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
};

/// In-memory span sink, written out when the run ends. A disabled log
/// hands out id 0 and drops records.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::uint64_t next_id() EXCLUDES(mutex_);
  void add(const SpanRecord& s) EXCLUDES(mutex_);
  std::vector<SpanRecord> spans() const EXCLUDES(mutex_);

 private:
  const bool enabled_;
  mutable vebo::Mutex mutex_;
  std::uint64_t last_id_ GUARDED_BY(mutex_) = 0;
  std::vector<SpanRecord> spans_ GUARDED_BY(mutex_);
};

std::uint64_t now_ns();

/// Times one call and, when the log is enabled, records it as a span.
/// The same two stamps feed the metric (stop() returns milliseconds), so
/// a traced run reads the clock no more often than an untraced one.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint64_t parent = 0,
        std::uint64_t tag = 0);
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Span id for children (0 when tracing is off).
  std::uint64_t id() const { return rec_.id; }
  /// Ends the span once; later calls return the same duration.
  double stop();

 private:
  SpanLog& log_;
  SpanRecord rec_;
  bool open_ = true;
  double ms_ = 0;
};

/// Writes the spans as Chrome trace-event JSON ("ph":"X" slices).
void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path);

/// Per-name span totals: count, wall time, and self time (duration minus
/// the union of its children's intervals).
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::string, SpanTotals> span_totals(
    const std::vector<SpanRecord>& spans);

// ----------------------------------------------------------- statistics

/// Fewest timed queries a run reports on: the p95 then has at least ten
/// samples beyond it.
inline constexpr std::size_t kMinQueries = 200;

/// Linear-interpolated percentile (0..100) of a sample; 0 when empty.
double pct(const std::vector<double>& xs, double p);
inline double median(const std::vector<double>& xs) { return pct(xs, 50); }

/// Peak resident set of this process so far, in MiB (VmHWM).
double peak_rss_mb();

/// The client-side end-to-end metrics every workload reports: qps over
/// the timed phase, p50/p95 latency, success rate.
void add_query_metrics(RunResult& r, const std::vector<double>& latency_ms,
                       double wall_s);

/// |a - b| <= rel * max(|a|, |b|) + abs_floor.
bool close(double a, double b, double rel, double abs_floor);

// ------------------------------------------------------------ workloads

RunResult run_analytics(const RunOptions& opt, SpanLog& log);
/// serve-read (write_heavy = false) and serve-write (true).
RunResult run_serve(const RunOptions& opt, SpanLog& log, bool write_heavy);

}  // namespace perfbench
