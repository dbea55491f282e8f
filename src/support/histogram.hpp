// Integer-valued histograms, used for degree distributions and for
// estimating the Zipf/power-law exponent of a graph (the quantity `s` in
// the paper's Section III).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace vebo {

/// Frequency table over non-negative integer values.
class Histogram {
 public:
  Histogram() = default;

  /// Builds a histogram of the given values.
  explicit Histogram(std::span<const std::uint64_t> values);

  void add(std::uint64_t value, std::uint64_t count = 1);

  std::uint64_t count(std::uint64_t value) const;
  std::uint64_t total() const { return total_; }
  /// Largest value with non-zero count (0 for an empty histogram).
  std::uint64_t max_value() const;
  /// Number of distinct values with non-zero count.
  std::size_t distinct() const;

  /// Fraction of samples equal to `value`.
  double fraction(std::uint64_t value) const;

  /// Smallest value v such that at least `q * total()` samples are <= v
  /// (nearest-rank percentile; q in [0, 1]). Returns 0 for an empty
  /// histogram. q=0.5/0.95/0.99 are the serving latency percentiles.
  std::uint64_t value_at_quantile(double q) const;

  /// Adds every sample of `other` into this histogram (bin-wise; exact,
  /// since both record the same integer values). Aggregating per-worker
  /// latency histograms this way preserves quantiles exactly at the bin
  /// level: merged.value_at_quantile(q) is the nearest-rank answer over
  /// the union of the samples, bounded between the per-part minimum and
  /// maximum of value_at_quantile(q).
  void merge(const Histogram& other);

  /// Log-log least-squares estimate of the power-law exponent alpha for
  /// the tail (value >= min_value): p(k) ~ k^-alpha. Returns 0 if there
  /// are fewer than two usable points.
  double powerlaw_exponent(std::uint64_t min_value = 1) const;

  /// ASCII rendering (top `max_rows` most frequent values), for examples.
  std::string render(std::size_t max_rows = 16) const;

 private:
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
};

/// A histogram over a sliding window: K sub-window histograms, one
/// "current" receiving add(), rotated in lockstep with the owner's time
/// buckets. rotate() retires the oldest sub-window and opens a fresh
/// current one, so after K rotations a sample is gone — the windowed
/// quantiles in the obs plane (SlidingWindow) never see samples older
/// than the window horizon. merged() flattens the live sub-windows into
/// one plain Histogram (bin-wise, exact), so quantiles over the window
/// are computed by the same nearest-rank code as the cumulative ones.
class WindowedHistogram {
 public:
  /// `sub_windows` >= 1; one is always "current".
  explicit WindowedHistogram(std::size_t sub_windows = 10);

  void add(std::uint64_t value, std::uint64_t count = 1);

  /// Advances the window by one sub-window: the oldest drops out, a
  /// fresh empty current opens. Rotating an all-empty window is a no-op
  /// in effect (still just empty sub-windows).
  void rotate();

  /// Drops every sample (all sub-windows emptied).
  void clear();

  /// Samples currently inside the window (sum over live sub-windows).
  std::uint64_t total() const { return total_; }
  std::size_t sub_windows() const { return subs_.size(); }

  /// Bin-wise union of the live sub-windows. Quantiles over the window:
  /// merged().value_at_quantile(q) — exact at the bin level, identical
  /// to a flat Histogram fed the same (unexpired) samples.
  Histogram merged() const;

 private:
  std::vector<Histogram> subs_;  ///< ring; subs_[cur_] is current
  std::size_t cur_ = 0;
  std::uint64_t total_ = 0;
};

/// Log-bucketed encoding for wide-range samples (serving latencies in
/// microseconds): ~6% relative resolution (16 sub-buckets per power of
/// two), codomain < 1024 for any 64-bit value — so a Histogram over
/// bucket ids stays a few KB no matter how large the outliers, instead
/// of growing bins_ to O(max value). Round-trip via log_bucket_floor
/// (the bucket's smallest value) under-reports by at most one bucket
/// width.
std::uint64_t log_bucket(std::uint64_t value);
std::uint64_t log_bucket_floor(std::uint64_t bucket);

/// Generalized harmonic number H_{N,s} = sum_{i=1..N} i^-s
/// (appears in the Zipf distribution, Eq. 1 of the paper).
double generalized_harmonic(std::size_t N, double s);

}  // namespace vebo
