#include "obs/timeline.hpp"

namespace gridmon::obs {

Gauge& Timeline::gauge(const std::string& name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return gauges_[order_[it->second].index];
  by_name_.emplace(name, order_.size());
  order_.push_back({Kind::kGauge, gauges_.size()});
  columns_.push_back(name);
  gauges_.emplace_back();
  return gauges_.back();
}

HistogramSketch& Timeline::histogram(const std::string& name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return histograms_[order_[it->second].index];
  by_name_.emplace(name, order_.size());
  order_.push_back({Kind::kHistogram, histograms_.size()});
  columns_.push_back(name + ".count");
  columns_.push_back(name + ".p50");
  columns_.push_back(name + ".p95");
  columns_.push_back(name + ".p99");
  histograms_.emplace_back();
  return histograms_.back();
}

void Timeline::sample(SimTime now) {
  Sample row;
  row.at = now;
  row.values.reserve(columns_.size());
  for (const SeriesRef& ref : order_) {
    switch (ref.kind) {
      case Kind::kGauge:
        row.values.push_back(gauges_[ref.index].value());
        break;
      case Kind::kHistogram: {
        HistogramSketch& window = histograms_[ref.index];
        row.values.push_back(static_cast<double>(window.count()));
        row.values.push_back(window.quantile(0.50));
        row.values.push_back(window.quantile(0.95));
        row.values.push_back(window.quantile(0.99));
        window.reset();
        break;
      }
    }
  }
  samples_.push_back(std::move(row));
}

}  // namespace gridmon::obs
