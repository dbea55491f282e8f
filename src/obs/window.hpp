// Sliding-window aggregation over served-query outcomes: "what is the
// error rate RIGHT NOW", not since process start.
//
// The cumulative counters in metrics.hpp answer trajectory questions;
// operations needs windowed ones — current qps, per-error-code rate,
// and latency quantiles over the last few seconds. SlidingWindow keeps
// a ring of rotating sub-window buckets (default 10 x 1s): record()
// lands a sample in the bucket its timestamp falls in, expired buckets
// are cleared as time advances, and snapshot() merges the live buckets
// into one consistent view. Latencies are log_bucket(us) ids (6%
// relative resolution, bounded bins), per algorithm code and overall,
// via WindowedHistogram so sub-window expiry and quantile math stay in
// support/histogram.
//
// The same record() also keeps the cumulative view: every success's
// latency since construction, never aged out (cumulative()). That makes
// the window the service's one latency sink — one lock per settled
// query serves both the since-boot quantiles and the windowed ones. A
// window constructed with windowed = false keeps only that cumulative
// view.
//
// slo_verdict() judges a snapshot against the service's availability
// SLO: 99.9% of settled queries succeed, so 0.1% is the error budget.
//
// Time is always passed in by the caller (steady-clock nanoseconds,
// obs::Tracer::now_ns()), never read internally — windows are exactly
// testable by driving fake timestamps. Thread-safe; one mutex, held for
// O(buckets) on rotation and O(bins) on snapshot. The serve fast path
// calls record() once per settled query, which is far off the
// step-granularity budget the tracing contract guards.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/annotated_mutex.hpp"
#include "support/histogram.hpp"

namespace vebo::obs {

struct WindowOptions {
  /// Sub-window count; the horizon is buckets x bucket_ns.
  std::size_t buckets = 10;
  std::uint64_t bucket_ns = 1'000'000'000;  ///< 1s sub-windows
};

/// Windowed quantiles for one algorithm code.
struct AlgoWindowStats {
  std::string algo;
  std::uint64_t samples = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
};

/// Latency quantiles over the samples recorded so far.
struct LatencySummary {
  std::uint64_t samples = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0, mean_ms = 0;
};

/// One consistent view of the window (all fields from the same locked
/// pass).
struct WindowSnapshot {
  double window_s = 0;        ///< horizon the rates are normalized over
  std::uint64_t total = 0;    ///< settled queries in the window
  std::uint64_t errors = 0;
  double qps = 0;             ///< total / window_s
  double error_rate = 0;      ///< errors / total (0 when empty)
  std::vector<std::uint64_t> errors_by_code;
  std::uint64_t latency_samples = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  std::vector<AlgoWindowStats> per_algo;
};

/// The availability SLO: a 99.9% target leaves an error budget of 0.1%
/// of settled queries. Below kSloMinSamples windowed samples there is
/// no verdict (an empty window is not an outage).
inline constexpr double kSloTargetAvailability = 0.999;
inline constexpr double kSloErrorBudget = 1.0 - kSloTargetAvailability;
static_assert(kSloErrorBudget > 0,
              "a 100% availability target leaves no error budget");
inline constexpr std::uint64_t kSloMinSamples = 32;

struct SloVerdict {
  double availability = 1.0;  ///< 1 - windowed error rate
  /// Windowed error rate / error budget: 0 = clean, 1 = failing at
  /// exactly the sustainable pace, 10 = the period's budget gone in a
  /// tenth of it.
  double burn_rate = 0;
  bool healthy = true;  ///< burn_rate <= 1, or no verdict yet
};

/// Judges one snapshot. Pure, so live, scraped and synthetic windows
/// are judged alike.
inline SloVerdict slo_verdict(const WindowSnapshot& w) {
  SloVerdict v;
  if (w.total < kSloMinSamples) return v;
  v.availability = 1.0 - w.error_rate;
  v.burn_rate = w.error_rate / kSloErrorBudget;
  v.healthy = v.burn_rate <= 1.0;
  return v;
}

class SlidingWindow {
 public:
  /// `code` value meaning "success" in record().
  static constexpr std::size_t kOk = ~std::size_t{0};

  /// `error_codes` is the width of errors_by_code (the index space of
  /// record()'s `code`; serve passes kNumErrorCodes). `windowed` = false
  /// keeps only the cumulative view: record() then books successes and
  /// ignores everything else, and snapshot() stays empty.
  explicit SlidingWindow(WindowOptions opts = {}, std::size_t error_codes = 0,
                         bool windowed = true);

  /// Records one settled query. `latency_ms` < 0 skips the latency
  /// histograms (rejections have no meaningful latency but must still
  /// count toward the error rate). `code` indexes errors_by_code (codes
  /// past its width count only toward `errors`), or kOk for a success;
  /// only successes enter the cumulative view.
  void record(std::uint64_t now_ns, const std::string& algo,
              double latency_ms, std::size_t code = kOk) EXCLUDES(mutex_);

  /// Advances the window to `now_ns` and merges the live buckets.
  WindowSnapshot snapshot(std::uint64_t now_ns) const EXCLUDES(mutex_);

  /// Every success recorded since construction.
  LatencySummary cumulative() const EXCLUDES(mutex_);

 private:
  struct Bucket {
    std::uint64_t total = 0;
    std::uint64_t errors = 0;
    std::vector<std::uint64_t> by_code;
  };

  /// Clears buckets the window slid past; lockstep-rotates the latency
  /// histograms.
  void advance(std::uint64_t now_ns) const REQUIRES(mutex_);

  WindowOptions opts_;
  std::size_t error_codes_;
  bool windowed_;
  mutable Mutex mutex_;
  Histogram cumulative_ GUARDED_BY(mutex_);  ///< log_bucket(us) ids
  double cumulative_sum_ms_ GUARDED_BY(mutex_) = 0;
  /// Ring slot for absolute bucket index i is buckets_[i % buckets].
  /// advance() eagerly clears every slot the window slides past, so all
  /// slots always hold in-window data and snapshot() just sums them.
  mutable std::vector<Bucket> buckets_ GUARDED_BY(mutex_);
  mutable std::uint64_t cur_index_ GUARDED_BY(mutex_) = 0;
  /// Current bucket's ring slot and ns range, maintained by advance():
  /// the per-record fast path is one compare against cur_end_ns_ and a
  /// direct slot access — the three integer divisions (advance + ring
  /// indexing) only run when a bucket boundary is actually crossed.
  mutable std::size_t cur_slot_ GUARDED_BY(mutex_) = 0;
  mutable std::uint64_t cur_start_ns_ GUARDED_BY(mutex_) = 0;
  mutable std::uint64_t cur_end_ns_ GUARDED_BY(mutex_) = 0;
  mutable WindowedHistogram latency_ GUARDED_BY(mutex_);
  /// Flat (algo, histogram) pairs, linear-searched: the record path
  /// sees a handful of live algorithms, so a size-first string == scan
  /// beats a node-walking map find on every settled query.
  mutable std::vector<std::pair<std::string, WindowedHistogram>> per_algo_
      GUARDED_BY(mutex_);
};

}  // namespace vebo::obs
