#include "core/history.hpp"

#include <utility>

namespace gridmon::core {

HistoryBuffer::HistoryBuffer(HistoryBuffer&& other) noexcept
    : raw_(std::move(other.raw_)),
      tiered_(std::move(other.tiered_)),
      next_seq_(other.next_seq_),
      bytes_(other.bytes_),
      dropped_(other.dropped_) {
  other.raw_.clear();
  other.tiered_.clear();
  other.bytes_ = 0;
}

HistoryBuffer& HistoryBuffer::operator=(HistoryBuffer&& other) noexcept {
  if (this == &other) return *this;
  release_accounting();
  raw_ = std::move(other.raw_);
  tiered_ = std::move(other.tiered_);
  next_seq_ = other.next_seq_;
  bytes_ = other.bytes_;
  dropped_ = other.dropped_;
  other.raw_.clear();
  other.tiered_.clear();
  other.bytes_ = 0;
  return *this;
}

HistoryBuffer::~HistoryBuffer() { release_accounting(); }

void HistoryBuffer::release_accounting() {
  if (bytes_ != 0) obs::mem_sub(obs::MemCategory::kHistory, bytes_);
  bytes_ = 0;
}

std::uint64_t HistoryBuffer::append(std::any payload, std::int64_t bytes,
                                    SimTime now) {
  const std::uint64_t seq = next_seq_++;
  raw_.push_back(Stored{std::move(payload), seq, bytes, now});
  bytes_ += bytes;
  obs::mem_add(obs::MemCategory::kHistory, bytes);
  prune(now);
  return seq;
}

bool HistoryBuffer::append_at(std::uint64_t seq, std::any payload,
                              std::int64_t bytes, SimTime now) {
  if (seq < next_seq_) return false;  // duplicate or stale replica traffic
  next_seq_ = seq + 1;
  raw_.push_back(Stored{std::move(payload), seq, bytes, now});
  bytes_ += bytes;
  obs::mem_add(obs::MemCategory::kHistory, bytes);
  prune(now);
  return true;
}

void HistoryBuffer::drop_front(std::deque<Stored>& tier, std::int64_t& freed) {
  freed += tier.front().bytes;
  bytes_ -= tier.front().bytes;
  ++dropped_;
  tier.pop_front();
}

std::int64_t HistoryBuffer::prune(SimTime now) {
  std::int64_t freed = 0;

  // Demote raw entries past the raw window: every K-th sequence survives
  // into the downsampled tier, the rest are dropped.
  while (!raw_.empty() && now - raw_.front().at > kRawWindow) {
    if (raw_.front().seq % kDownsampleKeepEvery == 0) {
      tiered_.push_back(std::move(raw_.front()));
      raw_.pop_front();
    } else {
      drop_front(raw_, freed);
    }
  }

  // Evict downsampled entries past the total retention window.
  while (!tiered_.empty() && now - tiered_.front().at > kDownsampledWindow) {
    drop_front(tiered_, freed);
  }

  if (freed != 0) obs::mem_sub(obs::MemCategory::kHistory, freed);
  return freed;
}

std::uint64_t HistoryBuffer::first_sequence() const {
  if (!tiered_.empty()) return tiered_.front().seq;
  if (!raw_.empty()) return raw_.front().seq;
  return 0;
}

ReplayStats HistoryBuffer::replay_since(std::uint64_t cursor, SimTime now,
                                        const ReplayVisitor& fn) {
  prune(now);  // a buffer nothing appended to since still ages
  ReplayStats stats;
  stats.first_available = first_sequence();
  // A cursor behind the oldest retained entry means part of the gap is
  // gone; a cursor *ahead* of everything we ever assigned means the source
  // restarted (wrapped sequence) — serve everything retained in that case.
  if (cursor >= next_seq_) cursor = 0;
  if (stats.first_available != 0 && cursor + 1 < stats.first_available) {
    stats.truncated = true;
  }
  for (const auto* tier : {&tiered_, &raw_}) {
    for (const auto& entry : *tier) {
      if (entry.seq <= cursor) continue;
      fn(entry.seq, entry.payload, entry.bytes);
      ++stats.served;
      stats.served_bytes += entry.bytes;
    }
  }
  return stats;
}

}  // namespace gridmon::core
