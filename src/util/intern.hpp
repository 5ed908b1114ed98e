// Interned string table: stable small-integer ids for repeated strings.
//
// The million-generator scale-out keeps per-entity state in struct-of-arrays
// form; names (topics, client ids, table names) must not be stored once per
// entity. A StringTable stores each distinct string exactly once in a
// contiguous arena and hands out dense std::uint32_t ids in *insertion
// order* — so a run that interns the same strings in the same order gets the
// same ids, keeping interned state inside the campaign determinism contract
// (jobs=1 vs jobs=4 byte-identical).
//
// One table per run (same ownership discipline as Metrics/MemProfile):
// single-threaded, no global state. bytes() reports the arena + index
// footprint so owners can mirror it into a memprof category.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gridmon::util {

class StringTable {
 public:
  using Id = std::uint32_t;
  static constexpr Id kInvalidId = 0xffffffffu;

  /// Return the id of `s`, inserting it if new. Ids are dense and assigned
  /// in first-intern order (0, 1, 2, ...).
  Id intern(std::string_view s);

  /// Id of `s` if already interned, kInvalidId otherwise. Never inserts.
  [[nodiscard]] Id find(std::string_view s) const;

  /// The string for `id`. Valid until the next intern() (the arena may
  /// reallocate). `id` must come from this table.
  [[nodiscard]] std::string_view view(Id id) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] bool empty() const { return spans_.empty(); }

  /// Bytes held live: arena storage plus the span and hash-slot vectors.
  /// Owners mirror deltas into a memprof category.
  [[nodiscard]] std::int64_t bytes() const;

 private:
  struct Span {
    std::uint32_t offset;
    std::uint32_t length;
  };

  [[nodiscard]] std::string_view at(const Span& span) const {
    return {arena_.data() + span.offset, span.length};
  }
  void rehash(std::size_t slot_count);

  std::string arena_;
  std::vector<Span> spans_;
  /// Open-addressed index: id + 1, 0 = empty. Power-of-two sized.
  std::vector<std::uint32_t> slots_;
};

}  // namespace gridmon::util
