// Windowed time-series: gauges and histogram series sampled on a
// virtual-clock timer.
//
// A Timeline owns a set of named series. Models set gauges and record into
// histogram series at event time; a kernel timer (armed by obs::Recorder)
// calls sample(now) on a fixed period, snapshotting every series into one
// row. Because the timer runs on the same deterministic event loop as the
// models, the whole series table is a pure function of (scenario, duration,
// seed) — byte-identical across campaign worker counts.
//
// Series handles returned by gauge()/histogram() are stable for the
// Timeline's lifetime (deque storage), so callers cache the reference once
// and pay a pointer write per update.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/sketch.hpp"
#include "util/units.hpp"

namespace gridmon::obs {

class Gauge {
 public:
  void set(double value) { value_ = value; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// One sampled row: the virtual timestamp plus every column value, in
/// column-definition order.
struct Sample {
  SimTime at = 0;
  std::vector<double> values;
};

class Timeline {
 public:
  /// Lookup-or-create; series appear in the export in creation order.
  Gauge& gauge(const std::string& name);
  /// A histogram series is the sketch of the current sample window, which
  /// sample() reads and then resets.
  HistogramSketch& histogram(const std::string& name);

  /// Column names, one per exported value. A gauge exports one column; a
  /// histogram series exports `<name>.count`, `.p50`, `.p95`, `.p99` of the
  /// window just ended.
  [[nodiscard]] const std::vector<std::string>& columns() const {
    return columns_;
  }

  /// Snapshot every series into a new row at `now`, then reset histogram
  /// windows.
  void sample(SimTime now);

  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }

 private:
  enum class Kind : std::uint8_t { kGauge, kHistogram };
  struct SeriesRef {
    Kind kind;
    std::size_t index;  // into the matching deque
  };

  std::deque<Gauge> gauges_;
  std::deque<HistogramSketch> histograms_;
  std::vector<SeriesRef> order_;  // creation order
  std::unordered_map<std::string, std::size_t> by_name_;  // name -> order_
  std::vector<std::string> columns_;
  std::vector<Sample> samples_;
};

}  // namespace gridmon::obs
