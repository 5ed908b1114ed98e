#include "util/intern.hpp"

namespace gridmon::util {
namespace {

// FNV-1a: the same cheap, stable hash the determinism goldens use.
std::uint64_t hash(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

StringTable::Id StringTable::intern(std::string_view s) {
  const Id existing = find(s);
  if (existing != kInvalidId) return existing;
  if (slots_.empty() || spans_.size() + 1 > slots_.size() * 7 / 10) {
    rehash(slots_.empty() ? 16 : slots_.size() * 2);
  }
  const auto id = static_cast<Id>(spans_.size());
  spans_.push_back(Span{static_cast<std::uint32_t>(arena_.size()),
                        static_cast<std::uint32_t>(s.size())});
  arena_.append(s);
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(hash(s)) & mask;
  while (slots_[slot] != 0) slot = (slot + 1) & mask;
  slots_[slot] = id + 1;
  return id;
}

StringTable::Id StringTable::find(std::string_view s) const {
  if (slots_.empty()) return kInvalidId;
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(hash(s)) & mask;
  while (slots_[slot] != 0) {
    const Id id = slots_[slot] - 1;
    if (at(spans_[id]) == s) return id;
    slot = (slot + 1) & mask;
  }
  return kInvalidId;
}

std::string_view StringTable::view(Id id) const { return at(spans_[id]); }

std::int64_t StringTable::bytes() const {
  return static_cast<std::int64_t>(arena_.capacity() +
                                   spans_.capacity() * sizeof(Span) +
                                   slots_.capacity() * sizeof(std::uint32_t));
}

void StringTable::rehash(std::size_t slot_count) {
  slots_.assign(slot_count, 0);
  const std::size_t mask = slot_count - 1;
  for (std::size_t id = 0; id < spans_.size(); ++id) {
    std::size_t slot = static_cast<std::size_t>(hash(at(spans_[id]))) & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<std::uint32_t>(id) + 1;
  }
}

}  // namespace gridmon::util
