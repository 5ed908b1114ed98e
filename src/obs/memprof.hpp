// Model memory-footprint accounting: where the simulator's bytes go.
//
// The ROADMAP's million-generator scale-out dies today because per-client
// state exhausts the heap; before a flyweight rewrite can claim anything,
// we need a baseline of *which subsystem* owns the bytes. A MemProfile
// keeps per-category live/peak counters fed by counting hooks in the
// middleware (broker routing tables, client records, stream-connection
// state, R-GMA tuple stores) plus the DES kernel's event-node slab. The
// experiment harness samples the counters into the run's Timeline as
// `mem_*` gauge series and summarises them as peak_model_bytes.
//
// Contract (same as obs/recorder.hpp marks): hooks route through a
// thread_local pointer installed by ScopedMemProfile; with no profile
// installed a hook is one thread_local load and a branch, and under
// GRIDMON_OBS=OFF it compiles to nothing. The counters observe allocation
// decisions the models already made — they never influence control flow —
// so every Results metric is bit-identical with profiling on or off.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace gridmon::obs {

#ifdef GRIDMON_OBS_DISABLED
inline constexpr bool kMemEnabled = false;
#else
inline constexpr bool kMemEnabled = true;
#endif

/// Subsystems whose footprint is tracked separately. Values index the
/// MemProfile arrays and the export column order.
enum class MemCategory : std::uint8_t {
  kBrokerRouting = 0,  ///< Narada subscription tables + remote-topic state
  kClientRecords,      ///< per-client records (NaradaClient objects)
  kNetConnections,     ///< stream-transport connection state (both ends)
  kRgmaTuples,         ///< R-GMA tuple stores (producer + consumer side)
  kKernelSlab,         ///< DES kernel event-node slab (via KernelStats)
  kMqttSubIndex,       ///< MQTT broker subscription list (one per entry)
  kPredicateCache,     ///< bound SQL predicates (producer + consumer side)
  kHistory,            ///< tiered retention buffers (backfill replication)
  kHier,               ///< hierarchical tier (fleet state, names, frames)
};
inline constexpr std::size_t kMemCategoryCount = 9;

/// Short label ("broker_routing", ...) for tables and docs.
[[nodiscard]] std::string_view to_string(MemCategory category);
/// Timeline gauge column name ("mem_broker_routing", ...).
[[nodiscard]] std::string_view gauge_name(MemCategory category);

/// End-of-run snapshot carried in core::Results (plain numbers, cheap to
/// copy; all zero when profiling was off).
struct MemSummary {
  bool enabled = false;
  std::array<std::int64_t, kMemCategoryCount> live{};
  std::array<std::int64_t, kMemCategoryCount> peak{};
  /// Peak of the *total* live bytes over time (not the sum of per-category
  /// peaks, which need not coincide).
  std::int64_t peak_total = 0;

  [[nodiscard]] std::int64_t live_at(MemCategory c) const {
    return live[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::int64_t peak_at(MemCategory c) const {
    return peak[static_cast<std::size_t>(c)];
  }
};

/// Per-run byte counters. Single-threaded like everything else in a run;
/// campaign parallelism is across runs, each with its own profile.
class MemProfile {
 public:
  void add(MemCategory category, std::int64_t bytes) {
    const auto i = static_cast<std::size_t>(category);
    live_[i] += bytes;
    if (live_[i] > peak_[i]) peak_[i] = live_[i];
    live_total_ += bytes;
    if (live_total_ > peak_total_) peak_total_ = live_total_;
  }
  void sub(MemCategory category, std::int64_t bytes) { add(category, -bytes); }
  /// Absolute update for externally-tracked pools (the kernel slab, which
  /// reports its size rather than individual allocations).
  void set(MemCategory category, std::int64_t bytes) {
    const auto i = static_cast<std::size_t>(category);
    add(category, bytes - live_[i]);
  }

  [[nodiscard]] std::int64_t live(MemCategory category) const {
    return live_[static_cast<std::size_t>(category)];
  }
  [[nodiscard]] std::int64_t peak(MemCategory category) const {
    return peak_[static_cast<std::size_t>(category)];
  }
  [[nodiscard]] std::int64_t live_total() const { return live_total_; }
  [[nodiscard]] std::int64_t peak_total() const { return peak_total_; }

  [[nodiscard]] MemSummary summary() const {
    MemSummary out;
    out.enabled = true;
    out.live = live_;
    out.peak = peak_;
    out.peak_total = peak_total_;
    return out;
  }

 private:
  std::array<std::int64_t, kMemCategoryCount> live_{};
  std::array<std::int64_t, kMemCategoryCount> peak_{};
  std::int64_t live_total_ = 0;
  std::int64_t peak_total_ = 0;
};

/// The profile counting hooks route to, when installed. Null when
/// profiling is off (the default).
[[nodiscard]] MemProfile* memprof();

/// RAII install/restore of the thread-local profile around one run.
class ScopedMemProfile {
 public:
  explicit ScopedMemProfile(MemProfile* profile);
  ~ScopedMemProfile();
  ScopedMemProfile(const ScopedMemProfile&) = delete;
  ScopedMemProfile& operator=(const ScopedMemProfile&) = delete;

 private:
  MemProfile* previous_;
};

namespace detail {
MemProfile*& current_memprof();
}  // namespace detail

/// Hot-path counting hooks for middleware call sites.
inline void mem_add(MemCategory category, std::int64_t bytes) {
  if constexpr (!kMemEnabled) return;
  if (MemProfile* p = detail::current_memprof()) p->add(category, bytes);
}

inline void mem_sub(MemCategory category, std::int64_t bytes) {
  if constexpr (!kMemEnabled) return;
  if (MemProfile* p = detail::current_memprof()) p->sub(category, bytes);
}

}  // namespace gridmon::obs
