// Per-run observability recorder: hop-span traces + the sampled Timeline.
//
// One Recorder lives for one experiment run. It owns:
//
//   * a Timeline sampled on a kernel PeriodicTimer (the sampler callback
//     reads model state into gauges; it draws no RNG and mutates nothing,
//     so enabling observability never changes a run's metrics — only the
//     kernel's own event count),
//   * hop-span traces: per-message sequences of (stage, virtual time)
//     marks threaded through the middleware, with deterministic 1-in-N
//     sampling keyed on a hash of the message identity (no RNG draws, so
//     the sampled set is identical across campaign worker counts),
//   * chaos annotations: fault windows copied from the FaultPlan so the
//     exporter can render them as a dedicated track.
//
// Middleware code never sees the Recorder type: it calls the free helpers
// mark_message()/mark_row() below, which consult a thread_local pointer
// installed by ScopedRecorder for the duration of one Simulation::run.
// When no recorder is installed (observability off — the default) a mark
// is one thread_local load and a branch; when the library is built with
// GRIDMON_OBS=OFF the helpers compile to nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/timeline.hpp"
#include "sim/simulation.hpp"

namespace gridmon::obs {

#ifdef GRIDMON_OBS_DISABLED
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// Message identity for span tracking. Derived by hashing whatever the
/// middleware already carries (Narada message ids, R-GMA row id+seq), so
/// no extra bytes travel with the message.
using TraceKey = std::uint64_t;

/// FNV-1a over the string (Narada "ID:node-port-seq" message ids).
[[nodiscard]] TraceKey key_of(std::string_view id);

/// Mixed pair key (R-GMA generator id + sequence).
[[nodiscard]] TraceKey key_of(std::int64_t a, std::int64_t b);

struct Options {
  /// Also turns on the model memory-footprint accounting (obs/memprof.hpp):
  /// per-subsystem byte counters sampled as mem_* gauges and summarised
  /// per run.
  bool enabled = false;
  /// Trace every Nth message (deterministic, keyed on TraceKey hash);
  /// 0 disables span collection entirely, 1 traces every message.
  std::uint32_t span_sample_every = 16;
};

struct Mark {
  std::uint16_t stage = 0;  // index into Report::stage_names
  SimTime at = 0;
};

struct CompletedTrace {
  TraceKey key = 0;
  std::vector<Mark> marks;  // sorted by time at completion
};

struct ChaosSpan {
  std::string name;
  SimTime begin = 0;
  SimTime end = 0;  // == begin for instant events
};

/// Immutable end-of-run snapshot; Results keeps a shared_ptr so campaign
/// pooling can copy records cheaply.
struct Report {
  Options options;
  std::vector<std::string> columns;
  std::vector<Sample> samples;
  std::vector<std::string> stage_names;
  std::vector<CompletedTrace> traces;
  std::uint64_t traces_dropped = 0;  // marked but never completed (lost)
  std::vector<ChaosSpan> chaos;
  SimTime horizon = 0;
};

class Recorder {
 public:
  Recorder(sim::Simulation& sim, Options options);
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  [[nodiscard]] Timeline& timeline() { return timeline_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// True when this message's spans are being collected (deterministic
  /// 1-in-N decision on the key hash).
  [[nodiscard]] bool want_trace(TraceKey key) const;

  /// Append a (stage, now) mark to the message's trace. No-op for
  /// unsampled keys. `stage` should be a short static name; it is
  /// interned on first use.
  void mark(TraceKey key, std::string_view stage);
  /// Same, but at an explicit virtual time (for callbacks that receive a
  /// timestamp taken earlier, e.g. Narada's arrived_at).
  void mark_at(TraceKey key, std::string_view stage, SimTime at);

  /// Seal the message's trace (delivered). Marks are time-sorted so stage
  /// durations telescope exactly between any two marks.
  void complete(TraceKey key);

  /// Record a fault window for the exporter's chaos track.
  void add_chaos(std::string name, SimTime begin, SimTime end);

  /// Install the state-reading callback run before every Timeline sample.
  void set_sampler(std::function<void(Timeline&)> fn) {
    sampler_ = std::move(fn);
  }

  /// Arm the sampling timer (call before Simulation::run).
  void arm(SimTime first_at);

  /// Take a final sample, drop the timer and freeze everything into a
  /// Report. Call once, after the run.
  [[nodiscard]] std::shared_ptr<const Report> finish(SimTime horizon);

 private:
  std::uint16_t intern(std::string_view stage);

  sim::Simulation& sim_;
  Options options_;
  Timeline timeline_;
  std::function<void(Timeline&)> sampler_;
  sim::PeriodicTimer timer_;
  std::vector<std::string> stage_names_;
  std::unordered_map<std::string, std::uint16_t> stage_index_;
  std::unordered_map<TraceKey, std::vector<Mark>> live_;
  std::vector<CompletedTrace> completed_;
  std::vector<ChaosSpan> chaos_;
};

/// The recorder middleware marks route to, when installed. Null when
/// observability is off.
[[nodiscard]] Recorder* tracer();

/// RAII install/restore of the thread-local recorder around one run.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(Recorder* recorder);
  ~ScopedRecorder();
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  Recorder* previous_;
};

namespace detail {
Recorder*& current_recorder();
}  // namespace detail

/// Hot-path helpers for middleware call sites. One thread_local load and
/// a branch when observability is off; nothing at all when compiled out.
inline void mark_message(const std::string& id, std::string_view stage) {
  if constexpr (!kEnabled) return;
  if (Recorder* r = tracer()) r->mark(key_of(id), stage);
}

inline void mark_row(std::int64_t a, std::int64_t b, std::string_view stage) {
  if constexpr (!kEnabled) return;
  if (Recorder* r = tracer()) r->mark(key_of(a, b), stage);
}

}  // namespace gridmon::obs
