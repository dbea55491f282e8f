#include "obs/window.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace vebo::obs {

namespace {

double quantile_ms(const Histogram& bucket_ids, double q) {
  return static_cast<double>(log_bucket_floor(bucket_ids.value_at_quantile(q))) /
         1e3;
}

}  // namespace

SlidingWindow::SlidingWindow(WindowOptions opts, std::size_t error_codes,
                             bool windowed)
    : opts_(opts),
      error_codes_(error_codes),
      windowed_(windowed),
      latency_(std::max<std::size_t>(1, opts.buckets)) {
  VEBO_CHECK(opts_.buckets >= 1, "SlidingWindow: buckets must be >= 1");
  VEBO_CHECK(opts_.bucket_ns >= 1, "SlidingWindow: bucket_ns must be >= 1");
  buckets_.resize(opts_.buckets);
  for (auto& b : buckets_) b.by_code.assign(error_codes_, 0);
  cur_end_ns_ = opts_.bucket_ns;  // bucket 0 covers [0, bucket_ns)
}

void SlidingWindow::advance(std::uint64_t now_ns) const {
  // Fast path — still inside the current bucket (or a lagging reader):
  // one compare, no division.
  if (now_ns < cur_end_ns_) return;
  const std::uint64_t idx = now_ns / opts_.bucket_ns;
  if (idx <= cur_index_) return;  // lagging reader past a slow init
  const std::uint64_t steps = idx - cur_index_;
  if (steps >= buckets_.size()) {
    // Slid past the whole horizon: everything expired.
    for (auto& b : buckets_) {
      b.total = b.errors = 0;
      std::fill(b.by_code.begin(), b.by_code.end(), 0);
    }
    latency_.clear();
    for (auto& [algo, h] : per_algo_) h.clear();
  } else {
    for (std::uint64_t i = 1; i <= steps; ++i) {
      Bucket& b = buckets_[(cur_index_ + i) % buckets_.size()];
      b.total = b.errors = 0;
      std::fill(b.by_code.begin(), b.by_code.end(), 0);
      // Lockstep: the histograms' sub-windows rotate with the buckets.
      latency_.rotate();
      for (auto& [algo, h] : per_algo_) h.rotate();
    }
  }
  cur_index_ = idx;
  cur_slot_ = static_cast<std::size_t>(idx % buckets_.size());
  cur_start_ns_ = idx * opts_.bucket_ns;
  cur_end_ns_ = cur_start_ns_ + opts_.bucket_ns;
}

void SlidingWindow::record(std::uint64_t now_ns, const std::string& algo,
                           double latency_ms, std::size_t code) {
  const bool success = code == kOk && latency_ms >= 0;
  if (!windowed_ && !success) return;
  // Same encoding as the windowed histograms: log-bucketed
  // microseconds, floored at 1us so an all-cache-hit p50 is not 0.
  const std::uint64_t bucket = log_bucket(
      static_cast<std::uint64_t>(std::max(1.0, latency_ms * 1000.0)));
  MutexLock lk(mutex_);
  if (success) {
    cumulative_.add(bucket);
    cumulative_sum_ms_ += latency_ms;
  }
  if (!windowed_) return;
  advance(now_ns);
  // In-current-bucket stamps (the overwhelming majority) index the
  // cached slot directly; only a stamp lagging behind the current
  // bucket's start pays the divisions to find its (still-live) slot.
  Bucket& b =
      now_ns >= cur_start_ns_
          ? buckets_[cur_slot_]
          : buckets_[(now_ns / opts_.bucket_ns) % buckets_.size()];
  ++b.total;
  if (code != kOk) {
    ++b.errors;
    if (code < b.by_code.size()) ++b.by_code[code];
  }
  if (latency_ms < 0) return;  // no meaningful latency (rejections)
  latency_.add(bucket);
  for (auto& [name, h] : per_algo_)
    if (name == algo) {
      h.add(bucket);
      return;
    }
  per_algo_.emplace_back(algo, WindowedHistogram(opts_.buckets));
  per_algo_.back().second.add(bucket);
}

LatencySummary SlidingWindow::cumulative() const {
  MutexLock lk(mutex_);
  LatencySummary s;
  s.samples = cumulative_.total();
  if (s.samples == 0) return s;
  s.p50_ms = quantile_ms(cumulative_, 0.50);
  s.p95_ms = quantile_ms(cumulative_, 0.95);
  s.p99_ms = quantile_ms(cumulative_, 0.99);
  s.mean_ms = cumulative_sum_ms_ / static_cast<double>(s.samples);
  return s;
}

WindowSnapshot SlidingWindow::snapshot(std::uint64_t now_ns) const {
  MutexLock lk(mutex_);
  advance(now_ns);
  WindowSnapshot w;
  w.window_s = static_cast<double>(buckets_.size()) *
               static_cast<double>(opts_.bucket_ns) / 1e9;
  w.errors_by_code.assign(error_codes_, 0);
  for (const Bucket& b : buckets_) {
    w.total += b.total;
    w.errors += b.errors;
    for (std::size_t c = 0; c < b.by_code.size(); ++c)
      w.errors_by_code[c] += b.by_code[c];
  }
  w.qps = static_cast<double>(w.total) / w.window_s;
  w.error_rate =
      w.total != 0
          ? static_cast<double>(w.errors) / static_cast<double>(w.total)
          : 0;
  const Histogram merged = latency_.merged();
  w.latency_samples = merged.total();
  if (w.latency_samples != 0) {
    w.p50_ms = quantile_ms(merged, 0.50);
    w.p95_ms = quantile_ms(merged, 0.95);
    w.p99_ms = quantile_ms(merged, 0.99);
  }
  for (auto it = per_algo_.begin(); it != per_algo_.end();) {
    if (it->second.total() == 0) {
      // Every sample expired: drop the entry so the list stays bounded
      // by the algorithms active within one window.
      it = per_algo_.erase(it);
      continue;
    }
    const Histogram h = it->second.merged();
    AlgoWindowStats a;
    a.algo = it->first;
    a.samples = h.total();
    a.p50_ms = quantile_ms(h, 0.50);
    a.p95_ms = quantile_ms(h, 0.95);
    a.p99_ms = quantile_ms(h, 0.99);
    w.per_algo.push_back(std::move(a));
    ++it;
  }
  // The live list is insertion-ordered; export sorted so metrics text
  // and snapshots stay diffable across runs.
  std::sort(w.per_algo.begin(), w.per_algo.end(),
            [](const AlgoWindowStats& x, const AlgoWindowStats& y) {
              return x.algo < y.algo;
            });
  return w;
}

}  // namespace vebo::obs
