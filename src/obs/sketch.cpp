#include "obs/sketch.hpp"

#include <algorithm>
#include <cmath>

namespace gridmon::obs {

HistogramSketch::HistogramSketch(double alpha) : alpha_(alpha) {
  if (!(alpha_ > 0.0) || alpha_ >= 1.0) alpha_ = 0.01;
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
  // Bucket i covers (gamma^(i-1), gamma^i]; the tracked range maps to a
  // contiguous index span computed once so the layout is a pure function
  // of alpha.
  index_offset_ =
      static_cast<int>(std::ceil(std::log(kMinTracked) * inv_log_gamma_));
  const int top =
      static_cast<int>(std::ceil(std::log(kMaxTracked) * inv_log_gamma_));
  buckets_.assign(static_cast<std::size_t>(top - index_offset_ + 1), 0);
}

int HistogramSketch::bucket_index(double value) const {
  if (!(value >= kMinTracked)) return -1;  // low bucket (incl. NaN guard)
  int index = static_cast<int>(std::ceil(std::log(value) * inv_log_gamma_)) -
              index_offset_;
  if (index < 0) index = 0;
  const int last = static_cast<int>(buckets_.size()) - 1;
  if (index > last) index = last;
  return index;
}

double HistogramSketch::bucket_lower(int index) const {
  return std::pow(gamma_, index + index_offset_ - 1);
}

double HistogramSketch::bucket_upper(int index) const {
  return std::pow(gamma_, index + index_offset_);
}

double HistogramSketch::bucket_value(int index) const {
  // 2*g^i/(g+1) is the point whose relative distance to both bucket edges
  // is exactly alpha — the midpoint that realises the error bound.
  return 2.0 * std::pow(gamma_, index + index_offset_) / (gamma_ + 1.0);
}

void HistogramSketch::record(double value) { record(value, 1); }

void HistogramSketch::record(double value, std::uint64_t weight) {
  if (weight == 0) return;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += weight;
  sum_ += value * static_cast<double>(weight);
  const int index = bucket_index(value);
  if (index < 0) {
    low_ += weight;
  } else {
    buckets_[static_cast<std::size_t>(index)] += weight;
  }
}

void HistogramSketch::reset() {
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
  low_ = 0;
  std::fill(buckets_.begin(), buckets_.end(), 0);
}

double HistogramSketch::min() const { return count_ == 0 ? 0.0 : min_; }
double HistogramSketch::max() const { return count_ == 0 ? 0.0 : max_; }

double HistogramSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th element (0-based, nearest-rank on the high side).
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1) + 0.5);
  std::uint64_t cumulative = low_;
  if (rank < cumulative) return 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (rank < cumulative) return bucket_value(static_cast<int>(i));
  }
  return max();  // unreachable unless counts desynced; stay defensive
}

}  // namespace gridmon::obs
