// Discrete-event simulation kernel.
//
// A Simulation owns a virtual clock and an event queue. Components schedule
// closures at absolute or relative virtual times; the kernel executes them in
// (time, insertion-order) order, so runs are fully deterministic. All
// randomness flows from the Simulation's root RNG through named streams.
//
// The kernel is single-threaded by design: the *modelled* system is highly
// concurrent (thousands of generator threads, broker pools), but the model
// itself needs no host parallelism — campaign parallelism lives strictly
// *across* runs (core/campaign.hpp).
//
// Hot-path design (see DESIGN.md §5): the queue is a bucketed calendar
// queue — a 4096-slot timer wheel of ~1 ms buckets with a binary-heap
// overflow level for events beyond the ~4.3 s window — and event nodes are
// recycled through a per-Simulation slab. Callbacks are EventFn (inline
// captures up to 48 bytes), and schedule_* returns a free-to-discard
// ScheduledEvent token that cancels by slab index and generation. A typical
// fire-and-forget event therefore allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string_view>
#include <vector>

#include "sim/event_fn.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace gridmon::sim {

class Simulation;

/// Lightweight token returned by Simulation::schedule_*: the kernel's one
/// way to cancel an event. Discarding it is free, cancel()/pending() are
/// O(1) and allocation-free, and it stays safe after the event fires: a
/// generation check makes stale tokens inert.
class ScheduledEvent {
 public:
  ScheduledEvent() = default;

  /// Cancel the event if it has not fired yet (safe no-op once fired).
  void cancel() const;
  [[nodiscard]] bool pending() const;

 private:
  friend class Simulation;
  ScheduledEvent(Simulation* sim, std::uint32_t node, std::uint64_t seq)
      : sim_(sim), node_(node), seq_(seq) {}
  Simulation* sim_ = nullptr;
  std::uint32_t node_ = 0;
  std::uint64_t seq_ = 0;  ///< 0 = inert (live sequence numbers start at 1)
};

/// Kernel self-metrics for one Simulation, all deterministic functions of
/// the run (campaign exports include them; events/sec is derived by
/// dividing events_executed by the harness wall clock, which is the only
/// nondeterministic factor and lives in RunRecord::wall_seconds).
struct KernelStats {
  /// Both leave observer events out (see EventKind).
  std::uint64_t events_executed = 0;
  std::uint64_t peak_queue_depth = 0;
  /// EventFn spills: callbacks whose captures exceeded the inline buffer.
  std::uint64_t callback_heap_allocs = 0;
  /// Shared cancellation handles materialised. ScheduledEvent is the
  /// kernel's one way to cancel and allocates none, so this reads 0; the
  /// campaign CSV (handle_allocs) and gridbench still report it.
  std::uint64_t handles_materialised = 0;
  /// Events scheduled beyond the level-1 wheel window (second-level wheel
  /// slot or, past its ~4.9 h span, the far binary heap).
  std::uint64_t overflow_events = 0;
  /// Event-node slab chunks allocated (1024 nodes each).
  std::uint64_t slab_chunks = 0;
  /// Bytes charged for the event-node slab (chunks x nodes x
  /// kSlabNodeBytes) — the kernel's share of the model memory footprint
  /// (obs/memprof).
  std::uint64_t slab_bytes = 0;
};

/// Bytes the model-memory profile (obs/memprof) charges per event-node slab
/// slot (KernelStats::slab_bytes). A fixed number rather than sizeof, so the
/// memory figures do not follow the host layout of the kernel's node; it is
/// the x86-64 GCC 12 size of Simulation's event node when the figure was
/// pinned.
constexpr std::uint64_t kSlabNodeBytes = 112;

/// A model event may change model state; an observer event (the obs
/// Timeline's sampling tick) only reads it. KernelStats leaves observer
/// events out of events_executed and peak_queue_depth, so both are
/// identical with observability on or off.
enum class EventKind : std::uint8_t { kModel, kObserver };

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Root RNG seed this simulation was built with.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Derive a named, independent RNG stream.
  [[nodiscard]] util::Rng rng_stream(std::string_view label) const {
    return root_rng_.stream(label);
  }

  /// Schedule `fn` at absolute virtual time `at` (clamped to now()).
  ScheduledEvent schedule_at(SimTime at, EventFn fn,
                             EventKind kind = EventKind::kModel);

  /// Schedule `fn` after `delay` (>= 0) from now.
  ScheduledEvent schedule_after(SimTime delay, EventFn fn) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Schedule `fn` to run at the current time, after already-queued
  /// same-time events.
  ScheduledEvent post(EventFn fn) { return schedule_after(0, std::move(fn)); }

  /// Run until the queue empties or `until` is reached (events at exactly
  /// `until` are executed). Returns the number of events executed.
  std::uint64_t run_until(SimTime until) {
    return run_loop(until, /*advance_clock=*/true);
  }

  /// Run until the queue is empty.
  std::uint64_t run() {
    return run_loop(std::numeric_limits<SimTime>::max(),
                    /*advance_clock=*/false);
  }

  /// Request that the run loop stop after the current event.
  void stop() { stop_requested_ = true; }

  /// Every event executed, observer events included.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t queue_size() const { return queue_size_; }

  /// Kernel self-metrics (deterministic; see KernelStats).
  [[nodiscard]] KernelStats kernel_stats() const {
    KernelStats stats;
    stats.events_executed = executed_ - observers_executed_;
    stats.peak_queue_depth = peak_queue_depth_;
    stats.callback_heap_allocs = callback_heap_allocs_;
    stats.overflow_events = overflow_events_;
    stats.slab_chunks = chunks_.size();
    stats.slab_bytes = static_cast<std::uint64_t>(chunks_.size()) *
                       (1ull << kChunkShift) * kSlabNodeBytes;
    return stats;
  }

 private:
  friend class ScheduledEvent;

  // --- calendar-queue geometry ----------------------------------------------
  // Two-level hierarchical wheel. Level 1: ~1.05 ms buckets x 4096 slots =
  // a ~4.3 s span that swallows sub-window delays (network transits, CPU
  // service, the R-GMA 100 ms poll). Level 2: ~4.3 s slots x 4096 = ~4.9 h;
  // longer timers (10 s publish periods, 30 s SP delay) land here in O(1)
  // and a whole slot is expanded into level 1 when the cursor reaches it.
  // Events past the level-2 span (no experiment gets there) fall back to a
  // binary heap. The level-1 window is always *aligned* to one level-2
  // slot (l1_slot_): alignment guarantees a given bucket maps to exactly
  // one region at any time, which keeps (time, seq) order exact.
  static constexpr int kBucketShift = 20;
  static constexpr int kWheelBits = 12;
  static constexpr std::uint64_t kWheelSize = 1ull << kWheelBits;
  static constexpr std::uint64_t kWheelMask = kWheelSize - 1;
  static constexpr int kChunkShift = 10;  ///< 1024 slab nodes per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  struct EventNode {
    SimTime time = 0;
    std::uint64_t seq = 0;  ///< 0 = free/retired (generation check)
    EventFn fn;
    bool cancelled = false;
    EventKind kind = EventKind::kModel;
  };

  [[nodiscard]] EventNode& node(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }
  [[nodiscard]] const EventNode& node(std::uint32_t index) const {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }
  [[nodiscard]] static std::uint64_t bucket_of(SimTime time) {
    return static_cast<std::uint64_t>(time) >> kBucketShift;
  }

  /// Queue entry: the ordering key travels with the slab index so heap
  /// sifts and bucket scans stay inside the (contiguous) queue vectors and
  /// never chase indices into the ~100-byte-stride node slab.
  struct QueueEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t index;
  };
  /// (time, seq) min-order for the front/overflow heaps.
  [[nodiscard]] static bool later(const QueueEntry& a, const QueueEntry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  std::uint32_t allocate_node();
  void recycle_node(std::uint32_t index);
  void enqueue(const QueueEntry& entry);
  /// Ensure front_ holds the globally earliest pending events; false when
  /// the whole queue is empty.
  bool refill_front();
  /// First occupied level-1 slot at/after the cursor (wheel_count_ > 0).
  [[nodiscard]] std::uint64_t next_occupied_bucket() const;
  /// First occupied level-2 slot after l1_slot_ (l2_count_ > 0).
  [[nodiscard]] std::uint64_t next_occupied_l2_slot() const;
  std::uint64_t run_loop(SimTime until, bool advance_clock);

  // ScheduledEvent backend.
  void cancel_event(std::uint32_t index, std::uint64_t seq);
  [[nodiscard]] bool event_pending(std::uint32_t index,
                                   std::uint64_t seq) const;

  SimTime now_ = 0;
  std::uint64_t seed_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t observers_executed_ = 0;
  bool stop_requested_ = false;
  util::Rng root_rng_;

  // Event-node slab: chunked so nodes never relocate, recycled via a free
  // list. Indices, not pointers, flow through the queue structures.
  std::vector<std::unique_ptr<EventNode[]>> chunks_;
  std::vector<std::uint32_t> free_nodes_;

  // The calendar queue. Invariants: front_ (descending (time,seq) drain
  // stack) holds events in buckets before cursor_bucket_; level-1 wheel
  // slots hold events whose bucket lies in level-2 slot l1_slot_ at or
  // after the cursor; l2_ slots (> l1_slot_) hold later events; overflow_
  // (min-heap) holds events beyond the level-2 span. Time never runs
  // backwards, so cursor_bucket_ and l1_slot_ only grow.
  std::vector<std::vector<QueueEntry>> wheel_;
  std::vector<std::uint64_t> occupied_;  ///< one bit per level-1 slot
  std::uint64_t cursor_bucket_ = 0;
  std::uint64_t l1_slot_ = 0;  ///< level-2 slot expanded into the wheel
  std::size_t wheel_count_ = 0;
  std::vector<std::vector<QueueEntry>> l2_;
  std::vector<std::uint64_t> l2_occupied_;  ///< one bit per level-2 slot
  std::size_t l2_count_ = 0;
  std::vector<QueueEntry> front_;
  std::vector<QueueEntry> overflow_;
  std::size_t queue_size_ = 0;
  std::size_t observers_queued_ = 0;  ///< of queue_size_

  // Self-metrics.
  std::uint64_t peak_queue_depth_ = 0;
  std::uint64_t callback_heap_allocs_ = 0;
  std::uint64_t overflow_events_ = 0;
};

inline void ScheduledEvent::cancel() const {
  if (sim_ != nullptr && seq_ != 0) sim_->cancel_event(node_, seq_);
}

inline bool ScheduledEvent::pending() const {
  return sim_ != nullptr && seq_ != 0 && sim_->event_pending(node_, seq_);
}

/// Repeating timer: runs `fn` every `period` starting at `first_at`.
/// Cancellation is via the returned handle chain: the timer reschedules
/// itself, and cancelling the PeriodicTimer stops future firings. The user
/// callback is stored once in the shared Impl; each re-arm only enqueues a
/// 16-byte weak_ptr capture, which lives inline in the event node.
class PeriodicTimer {
 public:
  PeriodicTimer() = default;
  PeriodicTimer(Simulation& sim, SimTime first_at, SimTime period,
                std::function<void()> fn, EventKind kind = EventKind::kModel);
  ~PeriodicTimer() { cancel(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;
  PeriodicTimer(PeriodicTimer&&) = default;
  /// Cancels any timer this object already runs before adopting the other
  /// one — assigning over an active timer must not leak a self-re-arming
  /// Impl (it would fire forever via the shared_ptr its events capture).
  PeriodicTimer& operator=(PeriodicTimer&& other) noexcept {
    if (this != &other) {
      cancel();
      impl_ = std::move(other.impl_);
    }
    return *this;
  }

  void cancel();
  [[nodiscard]] bool active() const { return impl_ != nullptr && impl_->active; }

 private:
  struct Impl {
    Simulation* sim = nullptr;
    SimTime period = 0;
    std::function<void()> fn;
    EventKind kind = EventKind::kModel;
    bool active = true;
    ScheduledEvent next;
  };
  static void arm(const std::shared_ptr<Impl>& impl, SimTime at);
  std::shared_ptr<Impl> impl_;
};

}  // namespace gridmon::sim
