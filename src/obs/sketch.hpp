// Fixed log-bucket histogram sketch (DDSketch-style, fixed layout).
//
// The observability Timeline needs a latency distribution it can record
// into on the hot path with a bounded error. A fixed-layout relative-error
// sketch gives both:
//
//   * O(1) record: one log() and an array increment, no allocation after
//     construction, no collapse/rebalance step.
//   * bounded error: any quantile estimate q satisfies
//     |estimate - true| <= alpha * true, for values inside the tracked
//     range [kMinTracked, kMaxTracked).
//
// Values below kMinTracked (including zero and negatives) fall into a
// dedicated "low" bucket reported as 0.0; values at or above kMaxTracked
// clamp into the top bucket. The tracked range (1e-6 .. 1e9, in whatever
// unit the caller records — milliseconds here) covers nanosecond-scale
// phase times through multi-day totals, so clamping is a non-event in
// practice but keeps the layout a pure function of alpha.
#pragma once

#include <cstdint>
#include <vector>

namespace gridmon::obs {

class HistogramSketch {
 public:
  /// `alpha` is the relative-error bound (default 1 %).
  explicit HistogramSketch(double alpha = 0.01);

  /// O(1): bucket-index via log, then an increment.
  void record(double value);
  void record(double value, std::uint64_t weight);

  void reset();

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const;  // 0 when empty
  [[nodiscard]] double max() const;  // 0 when empty

  /// Quantile estimate for q in [0, 1]; returns 0 when empty. For values
  /// inside the tracked range the estimate's relative error is <= alpha.
  [[nodiscard]] double quantile(double q) const;

  /// Layout introspection (used by tests to pin bucket boundaries).
  [[nodiscard]] double gamma() const { return gamma_; }
  [[nodiscard]] int bucket_index(double value) const;
  [[nodiscard]] double bucket_lower(int index) const;
  [[nodiscard]] double bucket_upper(int index) const;
  [[nodiscard]] double bucket_value(int index) const;
  [[nodiscard]] int bucket_count() const {
    return static_cast<int>(buckets_.size());
  }

  static constexpr double kMinTracked = 1e-6;
  static constexpr double kMaxTracked = 1e9;

 private:
  double alpha_;
  double gamma_;
  double inv_log_gamma_;
  int index_offset_ = 0;  // log-index of the first tracked bucket
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t low_ = 0;          // values < kMinTracked (incl. <= 0)
  std::vector<std::uint64_t> buckets_;
};

}  // namespace gridmon::obs
