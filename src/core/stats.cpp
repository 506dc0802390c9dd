#include "core/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wheels {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::cv_percent() const {
  return mean_ != 0.0 ? 100.0 * stddev() / std::abs(mean_) : 0.0;
}

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool has_nan(std::span<const double> xs) {
  return std::any_of(xs.begin(), xs.end(),
                     [](double x) { return std::isnan(x); });
}

// R-7 percentile of non-empty, sorted, NaN-free samples.
double sorted_percentile(std::span<const double> v, double p) {
  if (std::isnan(p)) return kNaN;
  if (p <= 0.0) return v.front();
  if (p >= 100.0) return v.back();
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

}  // namespace

void percentiles(std::span<const double> xs, std::span<const double> ps,
                 std::span<double> out) {
  if (out.size() != ps.size()) {
    throw std::invalid_argument("percentiles: need one output per rank");
  }
  if (xs.empty() || has_nan(xs)) {
    std::fill(out.begin(), out.end(), kNaN);
    return;
  }
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    out[i] = sorted_percentile(v, ps[i]);
  }
}

double percentile(std::span<const double> xs, double p) {
  double out = kNaN;
  percentiles(xs, {&p, 1}, {&out, 1});
  return out;
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double pearson(std::span<const double> xs, std::span<const double> ys) {
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double p) const {
  if (sorted_.empty() || has_nan(sorted_)) return kNaN;
  return sorted_percentile(sorted_, p * 100.0);
}

double EmpiricalCdf::min() const {
  return sorted_.empty() ? 0.0 : sorted_.front();
}

double EmpiricalCdf::max() const {
  return sorted_.empty() ? 0.0 : sorted_.back();
}

std::vector<EmpiricalCdf::Point> EmpiricalCdf::curve(std::size_t points) const {
  std::vector<Point> out;
  if (sorted_.empty() || points < 2) return out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double p =
        static_cast<double>(i) / static_cast<double>(points - 1);
    out.push_back({quantile(p), p});
  }
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins) {
  if (bins == 0 || !(hi > lo)) {
    throw std::invalid_argument("Histogram: need bins > 0 and hi > lo");
  }
}

void Histogram::add(double x) {
  auto bin = static_cast<long>((x - lo_) / width_);
  bin = std::clamp<long>(bin, 0, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

std::size_t Histogram::count(std::size_t bin) const { return counts_.at(bin); }

double Histogram::fraction(std::size_t bin) const {
  return total_ ? static_cast<double>(counts_.at(bin)) /
                      static_cast<double>(total_)
                : 0.0;
}

double Histogram::bin_lo(std::size_t bin) const {
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const {
  return lo_ + width_ * static_cast<double>(bin + 1);
}

}  // namespace wheels
