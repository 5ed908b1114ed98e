// Host-time spans for the traced benchmark run.
//
// Spans live in memory and are written once, at exit, as Chrome trace-event
// JSON (the format `gridmon_cli run --trace-out` writes for virtual time),
// so Perfetto opens the benchmark's host-time trace the same way. A span
// has a name, a layer (the src/ module it measures), the span that caused
// it, and a thread track. A layer's self time is its span's duration minus
// the part of that interval its child spans cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace gridbench {

struct Span {
  std::string name;
  std::string layer;
  int parent = -1;
  int track = 0;  ///< 0 = main thread, 1.. = campaign workers
  double begin_s = 0;
  double end_s = 0;
};

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  int begin(std::string name, std::string layer, int parent = -1) {
    spans_.push_back(
        Span{std::move(name), std::move(layer), parent, 0, now(), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_s = now(); }

  /// A span that has already finished (per-run spans rebuilt from the
  /// campaign's progress callback).
  int add(Span span) {
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] const Span& at(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] double seconds(int id) const {
    return at(id).end_s - at(id).begin_s;
  }

  /// Duration minus the union of the direct children's intervals.
  [[nodiscard]] double self_seconds(int id) const {
    const Span& span = at(id);
    std::vector<std::pair<double, double>> covered;
    for (const Span& child : spans_) {
      if (child.parent != id) continue;
      covered.emplace_back(std::max(child.begin_s, span.begin_s),
                           std::min(child.end_s, span.end_s));
    }
    std::sort(covered.begin(), covered.end());
    double busy = 0;
    double reach = span.begin_s;
    for (const auto& [b, e] : covered) {
      const double from = std::max(b, reach);
      if (e > from) {
        busy += e - from;
        reach = e;
      }
    }
    return seconds(id) - busy;
  }

  /// Trace-event JSON; `other_data` is a JSON object body (no braces)
  /// stored under "otherData" (Perfetto shows it as trace metadata).
  [[nodiscard]] std::string trace_json(const std::string& other_data) const {
    std::string out =
        "{\"displayTimeUnit\":\"ms\",\"otherData\":{" + other_data +
        "},\"traceEvents\":[\n";
    char buffer[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buffer, sizeof(buffer),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"self_us\":%.3f}}%s\n",
                    s.name.c_str(), s.layer.c_str(), s.track, s.begin_s * 1e6,
                    (s.end_s - s.begin_s) * 1e6, i, s.parent,
                    self_seconds(static_cast<int>(i)) * 1e6,
                    i + 1 < spans_.size() ? "," : "");
      out += buffer;
    }
    out += "]}\n";
    return out;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span on the main thread; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string layer,
             int parent = -1)
      : log_(log),
        id_(log != nullptr ? log->begin(std::move(name), std::move(layer),
                                        parent)
                           : -1) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

  /// End the span now (idempotent); returns its self time.
  double close() {
    if (log_ == nullptr) return 0;
    if (open_) log_->end(id_);
    open_ = false;
    return log_->self_seconds(id_);
  }

 private:
  SpanLog* log_;
  int id_;
  bool open_ = true;
};

}  // namespace gridbench
