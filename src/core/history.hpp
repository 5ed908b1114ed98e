// Tiered retention for reconnect backfill replication.
//
// The paper's clients lose every message published while disconnected:
// reconnect restores the *subscription* but not the gap. A HistoryBuffer is
// the shared durability primitive all three backends use to close that gap.
// It retains recent entries in two tiers — a raw ring covering the last
// kRawWindow at full fidelity, and a downsampled tier covering the last
// kDownsampledWindow at 1-in-kDownsampleKeepEvery fidelity — evicting the
// oldest first. A reconnecting client replays from its last-seen sequence;
// if retention has already evicted part of the gap the replay reports the
// truncation honestly instead of pretending the gap was filled.
//
// Entries are opaque (std::any payload + a wire-byte count): Narada stores
// FramePtr, MQTT stores parked PacketPtr packets. R-GMA reuses its existing
// TupleStore retention (the paper's own latest/history windows) and only
// shares the replay *protocol*, not this buffer.
//
// Retained bytes are memprof-accounted under MemCategory::kHistory — the
// memory price of replication is a first-class measurement, not an
// invisible freebie.
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <functional>

#include "obs/memprof.hpp"
#include "util/units.hpp"

namespace gridmon::core {

// The retention policy every HistoryBuffer applies. The windows follow the
// R-GMA producer storage (rgma/storage.hpp: 30 s latest, 60 s history) —
// the paper's own retention shape.

/// Raw tier: every entry younger than this is kept at full fidelity.
inline constexpr SimTime kRawWindow = units::seconds(30);
/// Downsampled tier: entries between kRawWindow and this age keep only
/// every kDownsampleKeepEvery-th sequence number.
inline constexpr SimTime kDownsampledWindow = units::seconds(60);
/// 1-in-K sampling for the downsampled tier.
inline constexpr std::uint64_t kDownsampleKeepEvery = 4;

/// What a replay actually served, so callers can report partial backfill.
struct ReplayStats {
  /// Entries delivered to the visitor.
  std::int64_t served = 0;
  /// Wire bytes of the served entries.
  std::int64_t served_bytes = 0;
  /// Oldest retained sequence at replay time (0 when the buffer is empty).
  std::uint64_t first_available = 0;
  /// True when the requested cursor preceded first_available: part of the
  /// gap was already evicted and the caller must count it as lost.
  bool truncated = false;
};

/// A per-topic (or per-session) retention buffer with a gap-replay cursor.
/// Sequence numbers are assigned by append() and increase monotonically;
/// the producer stamps them onto the live stream so consumers can detect
/// gaps and ask for `replay_since(last_seen, now)`.
class HistoryBuffer {
 public:
  HistoryBuffer() = default;

  // Retained bytes feed the obs memory profile (mem_history); moves
  // transfer the accounting, destruction releases it (a broker crash
  // dropping its buffers subtracts their footprint automatically).
  HistoryBuffer(const HistoryBuffer&) = delete;
  HistoryBuffer& operator=(const HistoryBuffer&) = delete;
  HistoryBuffer(HistoryBuffer&& other) noexcept;
  HistoryBuffer& operator=(HistoryBuffer&& other) noexcept;
  ~HistoryBuffer();

  /// Retain `payload` (costing `bytes` on replay) appended at `now`.
  /// Returns its sequence number, starting at 1.
  std::uint64_t append(std::any payload, std::int64_t bytes, SimTime now);

  /// Retain an entry whose sequence was assigned elsewhere (a replica
  /// preserving the origin's numbering). Duplicates and stale sequences
  /// (seq <= last_sequence()) are ignored; returns true when retained.
  bool append_at(std::uint64_t seq, std::any payload, std::int64_t bytes,
                 SimTime now);

  /// Apply retention at `now`: demote raw entries past kRawWindow into the
  /// downsampled tier (keeping every kDownsampleKeepEvery-th sequence),
  /// then evict entries past kDownsampledWindow. Returns bytes freed.
  std::int64_t prune(SimTime now);

  /// Apply retention at `now` (see prune), then visit the retained
  /// entries with sequence > `cursor`, oldest first. The visitor receives
  /// (sequence, payload, bytes).
  using ReplayVisitor =
      std::function<void(std::uint64_t, const std::any&, std::int64_t)>;
  ReplayStats replay_since(std::uint64_t cursor, SimTime now,
                           const ReplayVisitor& fn);

  [[nodiscard]] std::size_t size() const {
    return tiered_.size() + raw_.size();
  }
  /// Next sequence number append() would assign.
  [[nodiscard]] std::uint64_t head_sequence() const { return next_seq_; }
  /// Newest sequence ever appended (0 = never appended). Eviction does
  /// not move it — it is the replication high-watermark, not a cursor.
  [[nodiscard]] std::uint64_t last_sequence() const { return next_seq_ - 1; }
  /// Oldest retained sequence (0 when empty).
  [[nodiscard]] std::uint64_t first_sequence() const;
  [[nodiscard]] std::int64_t stored_bytes() const { return bytes_; }
  /// Entries dropped by eviction (window expiry, downsampling).
  [[nodiscard]] std::int64_t dropped() const { return dropped_; }

 private:
  struct Stored {
    std::any payload;
    std::uint64_t seq;
    std::int64_t bytes;
    SimTime at;
  };

  void drop_front(std::deque<Stored>& tier, std::int64_t& freed);
  void release_accounting();

  // Oldest-first within each tier; every tiered_ seq < every raw_ seq.
  std::deque<Stored> raw_;
  std::deque<Stored> tiered_;
  std::uint64_t next_seq_ = 1;
  std::int64_t bytes_ = 0;
  std::int64_t dropped_ = 0;
};

}  // namespace gridmon::core
