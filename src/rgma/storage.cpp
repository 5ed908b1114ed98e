#include "rgma/storage.hpp"

#include <map>

#include "obs/memprof.hpp"

namespace gridmon::rgma {

TupleStore::TupleStore(TupleStore&& other) noexcept
    : tuples_(std::move(other.tuples_)),
      next_seq_(other.next_seq_),
      bytes_(other.bytes_) {
  other.tuples_.clear();
  other.bytes_ = 0;
}

TupleStore& TupleStore::operator=(TupleStore&& other) noexcept {
  if (this != &other) {
    release_accounting();
    tuples_ = std::move(other.tuples_);
    next_seq_ = other.next_seq_;
    bytes_ = other.bytes_;
    other.tuples_.clear();
    other.bytes_ = 0;
  }
  return *this;
}

TupleStore::~TupleStore() { release_accounting(); }

void TupleStore::release_accounting() {
  if (bytes_ != 0) obs::mem_sub(obs::MemCategory::kRgmaTuples, bytes_);
  bytes_ = 0;
}

std::uint64_t TupleStore::insert(Tuple tuple, SimTime now) {
  tuple.inserted_at = now;
  const std::uint64_t seq = next_seq_++;
  const std::int64_t size = tuple.wire_size();
  bytes_ += size;
  obs::mem_add(obs::MemCategory::kRgmaTuples, size);
  tuples_.push_back(Stored{std::move(tuple), seq, size});
  return seq;
}

std::int64_t TupleStore::prune(SimTime now) {
  const SimTime cutoff = now - kHistoryRetention;
  std::int64_t freed = 0;
  while (!tuples_.empty() && tuples_.front().tuple.inserted_at < cutoff) {
    freed += tuples_.front().bytes;
    tuples_.pop_front();
  }
  bytes_ -= freed;
  if (freed != 0) obs::mem_sub(obs::MemCategory::kRgmaTuples, freed);
  return freed;
}

std::vector<Tuple> TupleStore::history(SimTime now) const {
  const SimTime cutoff = now - kHistoryRetention;
  std::vector<Tuple> out;
  for (const auto& stored : tuples_) {
    if (stored.tuple.inserted_at >= cutoff) out.push_back(stored.tuple);
  }
  return out;
}

std::vector<Tuple> TupleStore::latest(SimTime now) const {
  const SimTime cutoff = now - kLatestRetention;
  std::map<std::string, const Tuple*> newest;
  for (const auto& stored : tuples_) {
    if (stored.tuple.inserted_at < cutoff) continue;
    if (kKeyColumn >= stored.tuple.values.size()) continue;
    // Later entries overwrite earlier ones (deque is insertion-ordered).
    newest[sql_to_string(stored.tuple.values[kKeyColumn])] =
        &stored.tuple;
  }
  std::vector<Tuple> out;
  out.reserve(newest.size());
  for (const auto& [key, tuple] : newest) out.push_back(*tuple);
  return out;
}

}  // namespace gridmon::rgma
