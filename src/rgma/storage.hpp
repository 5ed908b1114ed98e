// Producer-side tuple storage with R-GMA retention semantics.
//
// A Primary Producer with memory storage keeps its published tuples for two
// windows: the *latest retention period* bounds how long a tuple counts as
// the current value of its primary key, and the *history retention period*
// bounds how long it is available to history queries at all. The paper's
// workload sets 30 s and 1 minute respectively; every producer uses them.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "rgma/schema.hpp"
#include "util/units.hpp"

namespace gridmon::rgma {

class TupleStore {
 public:
  static constexpr SimTime kLatestRetention = units::seconds(30);
  static constexpr SimTime kHistoryRetention = units::seconds(60);
  /// Column index used as the primary key for latest queries.
  static constexpr std::size_t kKeyColumn = 0;

  TupleStore() = default;

  // Stored bytes feed the obs memory profile (mem_rgma_tuples); moves
  // transfer the accounting, destruction releases it (a servlet crash
  // dropping its stores subtracts their footprint automatically).
  TupleStore(const TupleStore&) = delete;
  TupleStore& operator=(const TupleStore&) = delete;
  TupleStore(TupleStore&& other) noexcept;
  TupleStore& operator=(TupleStore&& other) noexcept;
  ~TupleStore();

  /// Store a tuple inserted at `now`. Returns its monotonically increasing
  /// sequence number (continuous-query cursors index by it).
  std::uint64_t insert(Tuple tuple, SimTime now);

  /// Drop tuples past the history retention period. Returns bytes freed.
  std::int64_t prune(SimTime now);

  /// Continuous query support: visit tuples with sequence > `cursor`
  /// oldest-first in place, advancing `cursor`. The streaming cycle copies
  /// only the tuples its predicate selects.
  template <typename Fn>
  void scan_since(std::uint64_t& cursor, Fn&& fn) const {
    // Sequences are monotone within the deque; binary-search the cursor.
    std::size_t lo = 0;
    std::size_t hi = tuples_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (tuples_[mid].seq > cursor) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    for (std::size_t i = lo; i < tuples_.size(); ++i) {
      fn(tuples_[i].tuple);
      cursor = tuples_[i].seq;
    }
  }

  /// History query: all retained tuples matching nothing more than the
  /// retention window (predicates evaluate upstream).
  [[nodiscard]] std::vector<Tuple> history(SimTime now) const;

  /// Latest query: newest tuple per key-column value within the latest
  /// retention period.
  [[nodiscard]] std::vector<Tuple> latest(SimTime now) const;

  [[nodiscard]] std::size_t size() const { return tuples_.size(); }
  [[nodiscard]] std::uint64_t head_sequence() const { return next_seq_; }
  /// Wire bytes currently retained (what the memory profile sees).
  [[nodiscard]] std::int64_t stored_bytes() const { return bytes_; }

 private:
  struct Stored {
    Tuple tuple;
    std::uint64_t seq;
    std::int64_t bytes;  ///< wire size, computed once at insert
  };

  void release_accounting();

  std::deque<Stored> tuples_;
  std::uint64_t next_seq_ = 1;
  std::int64_t bytes_ = 0;
};

}  // namespace gridmon::rgma
