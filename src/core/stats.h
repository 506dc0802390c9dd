// Statistics toolkit used by the analysis layer: percentiles, empirical
// CDFs, Pearson correlation, running moments, and histograms.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace wheels {

// Epsilon comparison helpers. wheels_lint bans direct floating-point ==/!=
// in the analysis and radio layers (a bit-exact match on a derived double is
// almost always a latent nondeterminism or porting bug); these are the
// sanctioned replacements. `tol` is applied both absolutely (near zero) and
// relative to the larger magnitude.
[[nodiscard]] inline bool approx_equal(double a, double b,
                                       double tol = 1e-9) {
  if (std::isnan(a) || std::isnan(b)) return false;
  if (a == b) return true;  // exact hit, covers equal infinities
  // Unequal infinities (or inf vs finite) must not satisfy the relative
  // test via tol * inf = inf.
  if (std::isinf(a) || std::isinf(b)) return false;
  const double diff = std::abs(a - b);
  return diff <= tol ||
         diff <= tol * std::fmax(std::abs(a), std::abs(b));
}

[[nodiscard]] inline bool approx_zero(double a, double tol = 1e-9) {
  return std::abs(a) <= tol;
}

// Running mean / variance (Welford). Numerically stable for the millions of
// 500 ms samples a campaign produces.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  // population variance
  [[nodiscard]] double stddev() const;
  // NaN when no samples have been added: an empty window has no extrema,
  // and a silent 0.0 poisons downstream mins/maxes.
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  // Coefficient of variation as a percentage (the paper's "std. dev. as a
  // percentage over the mean", Fig. 9 bottom row).
  [[nodiscard]] double cv_percent() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::quiet_NaN();
  double max_ = std::numeric_limits<double>::quiet_NaN();
};

// Percentile of a sample set using linear interpolation between closest
// ranks (the "exclusive" R-7 definition used by numpy.percentile default).
// p in [0, 100]. The input need not be sorted. An empty input, a NaN in the
// input, or a NaN p yields NaN: sorting NaNs breaks strict weak ordering,
// so rejecting them explicitly beats returning an arbitrary rank.
[[nodiscard]] double percentile(std::span<const double> xs, double p);

// Several percentiles of one sample set: out[i] is percentile(xs, ps[i]),
// bit for bit, from a single copy and sort of `xs`. `out` must hold one
// element per rank.
void percentiles(std::span<const double> xs, std::span<const double> ps,
                 std::span<double> out);

// Convenience: median.
[[nodiscard]] double median(std::span<const double> xs);

// Pearson's correlation coefficient. Returns 0 when either side is
// degenerate (fewer than 2 points or zero variance).
[[nodiscard]] double pearson(std::span<const double> xs,
                             std::span<const double> ys);

// Empirical CDF: sorted samples + evaluation and fixed-grid summarization
// for printing figure series.
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;
  explicit EmpiricalCdf(std::vector<double> samples);

  [[nodiscard]] std::size_t count() const { return sorted_.size(); }
  [[nodiscard]] bool empty() const { return sorted_.empty(); }
  // P(X <= x).
  [[nodiscard]] double at(double x) const;
  // Inverse CDF, p in [0, 1].
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] const std::vector<double>& sorted() const { return sorted_; }

  // Sample the CDF at `points` evenly spaced quantiles -- the series a
  // bench prints to reproduce a figure's CDF curve.
  struct Point {
    double x;
    double p;
  };
  [[nodiscard]] std::vector<Point> curve(std::size_t points = 21) const;

 private:
  std::vector<double> sorted_;
};

// Fixed-width histogram over [lo, hi); out-of-range values clamp into the
// first/last bin.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const;
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] double fraction(std::size_t bin) const;
  [[nodiscard]] double bin_lo(std::size_t bin) const;
  [[nodiscard]] double bin_hi(std::size_t bin) const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace wheels
