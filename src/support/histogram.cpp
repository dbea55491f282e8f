#include "support/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "support/stats.hpp"

namespace vebo {

Histogram::Histogram(std::span<const std::uint64_t> values) {
  for (auto v : values) add(v);
}

void Histogram::add(std::uint64_t value, std::uint64_t count) {
  if (value >= bins_.size()) bins_.resize(value + 1, 0);
  bins_[value] += count;
  total_ += count;
}

std::uint64_t Histogram::count(std::uint64_t value) const {
  return value < bins_.size() ? bins_[value] : 0;
}

std::uint64_t Histogram::max_value() const {
  for (std::size_t i = bins_.size(); i-- > 0;)
    if (bins_[i] != 0) return i;
  return 0;
}

std::size_t Histogram::distinct() const {
  std::size_t d = 0;
  for (auto b : bins_)
    if (b != 0) ++d;
  return d;
}

double Histogram::fraction(std::uint64_t value) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(value)) / static_cast<double>(total_);
}

void Histogram::merge(const Histogram& other) {
  if (other.bins_.size() > bins_.size()) bins_.resize(other.bins_.size(), 0);
  for (std::size_t v = 0; v < other.bins_.size(); ++v)
    bins_[v] += other.bins_[v];
  total_ += other.total_;
}

std::uint64_t Histogram::value_at_quantile(double q) const {
  if (total_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the rank-th smallest sample, rank = ceil(q * total).
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (std::size_t v = 0; v < bins_.size(); ++v) {
    seen += bins_[v];
    if (seen >= rank) return v;
  }
  return max_value();
}

WindowedHistogram::WindowedHistogram(std::size_t sub_windows)
    : subs_(std::max<std::size_t>(1, sub_windows)) {}

void WindowedHistogram::add(std::uint64_t value, std::uint64_t count) {
  subs_[cur_].add(value, count);
  total_ += count;
}

void WindowedHistogram::rotate() {
  // The slot after current holds the oldest sub-window; it becomes the
  // fresh current (its samples expire), keeping the ring in place.
  cur_ = (cur_ + 1) % subs_.size();
  total_ -= subs_[cur_].total();
  subs_[cur_] = Histogram{};
}

void WindowedHistogram::clear() {
  for (auto& s : subs_) s = Histogram{};
  total_ = 0;
}

Histogram WindowedHistogram::merged() const {
  Histogram m;
  for (const auto& s : subs_) m.merge(s);
  return m;
}

double Histogram::powerlaw_exponent(std::uint64_t min_value) const {
  std::vector<double> lx, ly;
  for (std::size_t v = std::max<std::uint64_t>(min_value, 1);
       v < bins_.size(); ++v) {
    if (bins_[v] == 0) continue;
    lx.push_back(std::log(static_cast<double>(v)));
    ly.push_back(std::log(static_cast<double>(bins_[v])));
  }
  if (lx.size() < 2) return 0.0;
  return -linear_fit(lx, ly).slope;
}

std::string Histogram::render(std::size_t max_rows) const {
  // Show the most frequent values, one row each, with a proportional bar.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rows;  // (count, value)
  for (std::size_t v = 0; v < bins_.size(); ++v)
    if (bins_[v] != 0) rows.emplace_back(bins_[v], v);
  std::sort(rows.rbegin(), rows.rend());
  if (rows.size() > max_rows) rows.resize(max_rows);
  const std::uint64_t top = rows.empty() ? 1 : rows.front().first;
  std::ostringstream os;
  for (const auto& [cnt, val] : rows) {
    const int width = static_cast<int>(40.0 * static_cast<double>(cnt) /
                                       static_cast<double>(top));
    os << "  " << val << "\t" << cnt << "\t" << std::string(width, '#')
       << "\n";
  }
  return os.str();
}

std::uint64_t log_bucket(std::uint64_t value) {
  // Values below 32 are exact (exponent 4: 16 sub-buckets of width 1
  // cover [16, 32)); above that, 16 geometric sub-buckets per octave.
  if (value < 32) return value;
  const int e = 63 - std::countl_zero(value);   // value in [2^e, 2^(e+1))
  const std::uint64_t sub = (value >> (e - 4)) & 15;  // top 4 bits after MSB
  return static_cast<std::uint64_t>(e - 4) * 16 + 16 + sub;
}

std::uint64_t log_bucket_floor(std::uint64_t bucket) {
  if (bucket < 32) return bucket;
  const std::uint64_t e = (bucket - 16) / 16 + 4;
  const std::uint64_t sub = (bucket - 16) % 16;
  return (16 + sub) << (e - 4);
}

double generalized_harmonic(std::size_t N, double s) {
  double h = 0.0;
  for (std::size_t i = 1; i <= N; ++i)
    h += std::pow(static_cast<double>(i), -s);
  return h;
}

}  // namespace vebo
