#include "sim/simulation.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace gridmon::sim {

Simulation::Simulation(std::uint64_t seed)
    : seed_(seed),
      root_rng_(seed),
      wheel_(kWheelSize),
      occupied_(kWheelSize / 64, 0),
      l2_(kWheelSize),
      l2_occupied_(kWheelSize / 64, 0) {}

std::uint32_t Simulation::allocate_node() {
  if (free_nodes_.empty()) {
    chunks_.push_back(std::make_unique<EventNode[]>(1u << kChunkShift));
    const auto base =
        static_cast<std::uint32_t>((chunks_.size() - 1) << kChunkShift);
    free_nodes_.reserve(1u << kChunkShift);
    // Hand nodes out in ascending index order (purely cosmetic: the first
    // events of a run land in the first slab slots).
    for (std::uint32_t i = 1u << kChunkShift; i > 0; --i) {
      free_nodes_.push_back(base + i - 1);
    }
  }
  const std::uint32_t index = free_nodes_.back();
  free_nodes_.pop_back();
  return index;
}

void Simulation::recycle_node(std::uint32_t index) {
  EventNode& n = node(index);
  n.seq = 0;  // retire the generation: stale tokens become inert
  n.fn.reset();
  n.cancelled = false;
  n.kind = EventKind::kModel;
  free_nodes_.push_back(index);
}

void Simulation::enqueue(const QueueEntry& entry) {
  const std::uint64_t bucket = bucket_of(entry.time);
  if (bucket < cursor_bucket_) {
    // The front region is already being drained at this time range: insert
    // at the (time, seq) position in the descending drain stack. The stack
    // holds at most the tail of one bucket, so the shift stays short.
    front_.insert(
        std::upper_bound(front_.begin(), front_.end(), entry, later), entry);
    return;
  }
  const std::uint64_t slot_l2 = bucket >> kWheelBits;
  if (slot_l2 == l1_slot_) {
    const std::uint64_t slot = bucket & kWheelMask;
    wheel_[slot].push_back(entry);
    occupied_[slot >> 6] |= 1ull << (slot & 63);
    ++wheel_count_;
  } else if (slot_l2 < kWheelSize) {
    // Later level-2 slot (slot_l2 > l1_slot_ whenever bucket >= cursor):
    // O(1) append; the whole slot is expanded into level 1 when the cursor
    // gets there.
    l2_[slot_l2].push_back(entry);
    l2_occupied_[slot_l2 >> 6] |= 1ull << (slot_l2 & 63);
    ++l2_count_;
    ++overflow_events_;
  } else {
    // Beyond the ~4.9 h level-2 span: far heap.
    overflow_.push_back(entry);
    std::push_heap(overflow_.begin(), overflow_.end(), later);
    ++overflow_events_;
  }
}

std::uint64_t Simulation::next_occupied_bucket() const {
  // While wheel_count_ > 0 the cursor sits inside level-2 slot l1_slot_,
  // so the scan never wraps: it runs from the cursor's slot to the end of
  // the aligned window.
  const std::uint64_t base = l1_slot_ << kWheelBits;
  const std::uint64_t start = cursor_bucket_ - base;
  const std::uint64_t words = kWheelSize / 64;
  std::uint64_t word_index = start >> 6;
  std::uint64_t word = occupied_[word_index] & (~0ull << (start & 63));
  while (word == 0 && ++word_index < words) {
    word = occupied_[word_index];
  }
  if (word == 0) return cursor_bucket_;  // unreachable while wheel_count_ > 0
  return base + (word_index << 6) +
         static_cast<std::uint64_t>(std::countr_zero(word));
}

std::uint64_t Simulation::next_occupied_l2_slot() const {
  // Occupied level-2 slots are all strictly after l1_slot_ (enqueue routes
  // bucket >= cursor with the same slot into level 1), so no wrap either.
  const std::uint64_t start = l1_slot_ + 1;
  const std::uint64_t words = kWheelSize / 64;
  std::uint64_t word_index = start >> 6;
  std::uint64_t word = l2_occupied_[word_index] & (~0ull << (start & 63));
  while (word == 0 && ++word_index < words) {
    word = l2_occupied_[word_index];
  }
  if (word == 0) return l1_slot_;  // unreachable while l2_count_ > 0
  return (word_index << 6) +
         static_cast<std::uint64_t>(std::countr_zero(word));
}

bool Simulation::refill_front() {
  if (!front_.empty()) return true;
  for (;;) {
    if (wheel_count_ > 0) {
      const std::uint64_t bucket = next_occupied_bucket();
      const std::uint64_t slot = bucket & kWheelMask;
      front_.swap(wheel_[slot]);
      wheel_count_ -= front_.size();
      occupied_[slot >> 6] &= ~(1ull << (slot & 63));
      cursor_bucket_ = bucket + 1;
      // Descending (time, seq) order: the drain stack pops the earliest
      // event off the back in O(1). One sort per bucket beats heap sifts
      // per event.
      std::sort(front_.begin(), front_.end(), later);
      return true;
    }
    if (l2_count_ > 0) {
      // Level 1 drained: expand the next occupied level-2 slot into it.
      // All its entries share that slot, so they all fit the new window.
      const std::uint64_t slot_l2 = next_occupied_l2_slot();
      cursor_bucket_ = slot_l2 << kWheelBits;
      l1_slot_ = slot_l2;
      std::vector<QueueEntry> batch;
      batch.swap(l2_[slot_l2]);  // frees the slot's capacity at scope end
      l2_occupied_[slot_l2 >> 6] &= ~(1ull << (slot_l2 & 63));
      l2_count_ -= batch.size();
      for (const QueueEntry& entry : batch) {
        const std::uint64_t slot = bucket_of(entry.time) & kWheelMask;
        wheel_[slot].push_back(entry);
        occupied_[slot >> 6] |= 1ull << (slot & 63);
      }
      wheel_count_ += batch.size();
      continue;
    }
    if (!overflow_.empty()) {
      // Far region: jump to the earliest heap event and pull everything in
      // its level-2 slot into the wheel (the rest of the heap stays put).
      const std::uint64_t bucket = bucket_of(overflow_.front().time);
      if (bucket > cursor_bucket_) cursor_bucket_ = bucket;
      l1_slot_ = bucket >> kWheelBits;
      while (!overflow_.empty() &&
             (bucket_of(overflow_.front().time) >> kWheelBits) == l1_slot_) {
        std::pop_heap(overflow_.begin(), overflow_.end(), later);
        const QueueEntry entry = overflow_.back();
        overflow_.pop_back();
        const std::uint64_t slot = bucket_of(entry.time) & kWheelMask;
        wheel_[slot].push_back(entry);
        occupied_[slot >> 6] |= 1ull << (slot & 63);
        ++wheel_count_;
      }
      continue;
    }
    return false;
  }
}

ScheduledEvent Simulation::schedule_at(SimTime at, EventFn fn,
                                       EventKind kind) {
  if (at < now_) at = now_;
  if (fn.on_heap()) ++callback_heap_allocs_;
  const std::uint32_t index = allocate_node();
  EventNode& n = node(index);
  n.time = at;
  n.seq = next_seq_++;
  n.fn = std::move(fn);
  n.kind = kind;
  enqueue(QueueEntry{at, n.seq, index});
  ++queue_size_;
  if (kind == EventKind::kObserver) {
    ++observers_queued_;
  } else if (queue_size_ - observers_queued_ > peak_queue_depth_) {
    peak_queue_depth_ = queue_size_ - observers_queued_;
  }
  return ScheduledEvent(this, index, n.seq);
}

std::uint64_t Simulation::run_loop(SimTime until, bool advance_clock) {
  std::uint64_t executed = 0;
  stop_requested_ = false;
  while (!stop_requested_ && refill_front()) {
    if (front_.back().time > until) break;
    const std::uint32_t index = front_.back().index;
    front_.pop_back();
    EventNode& n = node(index);
    --queue_size_;
    const bool observer = n.kind == EventKind::kObserver;
    if (observer) --observers_queued_;
    now_ = n.time;
    if (n.cancelled) {
      recycle_node(index);
      continue;
    }
    // Retire the generation before invoking (stale tokens are inert while
    // the callback runs), then invoke in place: the node cannot be reused
    // mid-invoke because it is not on the free list yet, and slab chunks
    // never relocate even if the callback schedules new events.
    n.seq = 0;
    n.fn();
    recycle_node(index);
    // Count after the callback, into both totals together, so a
    // kernel_stats() read inside an observer sees exactly the model events
    // executed before it.
    ++executed;
    ++executed_;
    if (observer) ++observers_executed_;
  }
  // Advance the clock to the horizon even if the queue drained earlier, so
  // back-to-back run_until calls see monotonic time.
  if (advance_clock && now_ < until && queue_size_ == 0) now_ = until;
  return executed;
}

void Simulation::cancel_event(std::uint32_t index, std::uint64_t seq) {
  EventNode& n = node(index);
  if (n.seq != seq) return;  // already fired or recycled
  n.cancelled = true;
}

bool Simulation::event_pending(std::uint32_t index, std::uint64_t seq) const {
  const EventNode& n = node(index);
  return n.seq == seq && !n.cancelled;
}

PeriodicTimer::PeriodicTimer(Simulation& sim, SimTime first_at, SimTime period,
                             std::function<void()> fn, EventKind kind) {
  impl_ = std::make_shared<Impl>();
  impl_->sim = &sim;
  impl_->period = period > 0 ? period : 1;
  impl_->fn = std::move(fn);
  impl_->kind = kind;
  arm(impl_, first_at);
}

void PeriodicTimer::arm(const std::shared_ptr<Impl>& impl, SimTime at) {
  std::weak_ptr<Impl> weak = impl;
  impl->next = impl->sim->schedule_at(
      at,
      [weak] {
        auto self = weak.lock();
        if (!self || !self->active) return;
        self->fn();
        // fn may have cancelled the timer.
        if (self->active) arm(self, self->sim->now() + self->period);
      },
      impl->kind);
}

void PeriodicTimer::cancel() {
  if (impl_) {
    impl_->active = false;
    impl_->next.cancel();
  }
}

}  // namespace gridmon::sim
