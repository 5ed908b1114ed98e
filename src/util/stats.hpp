// Streaming and exact statistics used by the measurement harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gridmon::util {

/// Numerically stable streaming mean (Welford's running update).
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
};

/// Exact sample set with quantile queries. Stores every sample; the study's
/// largest experiment records fewer than a million RTTs, so exactness is
/// affordable and matches how the paper computed its percentile plots.
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Quantile in [0,1] with linear interpolation between order statistics.
  /// quantile(1.0) is the maximum. Returns 0 for an empty set.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double max() const { return quantile(1.0); }

  /// Fraction of samples <= threshold.
  [[nodiscard]] double fraction_below(double threshold) const;

  [[nodiscard]] const std::vector<double>& raw() const { return samples_; }

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace gridmon::util
