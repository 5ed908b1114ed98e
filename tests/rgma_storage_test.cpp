#include "rgma/storage.hpp"

#include <vector>

#include <gtest/gtest.h>

namespace gridmon::rgma {
namespace {

Tuple row(std::int64_t key, double value) {
  Tuple tuple;
  tuple.values = {SqlValue{key}, SqlValue{value}};
  return tuple;
}

/// Copies out what scan_since visits.
std::vector<Tuple> since(const TupleStore& store, std::uint64_t& cursor) {
  std::vector<Tuple> out;
  store.scan_since(cursor, [&out](const Tuple& tuple) { out.push_back(tuple); });
  return out;
}

TEST(TupleStore, InsertAssignsMonotonicSequences) {
  TupleStore store;
  EXPECT_EQ(store.insert(row(1, 1.0), 0), 1u);
  EXPECT_EQ(store.insert(row(2, 2.0), 0), 2u);
  EXPECT_EQ(store.insert(row(3, 3.0), 0), 3u);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.head_sequence(), 4u);
}

TEST(TupleStore, SinceReturnsOnlyNewTuplesAndAdvancesCursor) {
  TupleStore store;
  store.insert(row(1, 1.0), 0);
  store.insert(row(2, 2.0), 0);
  std::uint64_t cursor = 0;
  auto first = since(store, cursor);
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(cursor, 2u);
  EXPECT_TRUE(since(store, cursor).empty());
  store.insert(row(3, 3.0), 0);
  auto second = since(store, cursor);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(second[0].values[0]), 3);
  EXPECT_EQ(cursor, 3u);
}

TEST(TupleStore, CursorAtHeadSkipsHistory) {
  // A continuous query attaching late must not replay old tuples.
  TupleStore store;
  store.insert(row(1, 1.0), 0);
  store.insert(row(2, 2.0), 0);
  std::uint64_t cursor = store.head_sequence() - 1;
  EXPECT_TRUE(since(store, cursor).empty());
  store.insert(row(3, 3.0), 0);
  EXPECT_EQ(since(store, cursor).size(), 1u);
}

TEST(TupleStore, PruneDropsExpiredHistory) {
  ASSERT_EQ(TupleStore::kHistoryRetention, units::seconds(60));
  TupleStore store;
  store.insert(row(1, 1.0), units::seconds(0));
  store.insert(row(2, 2.0), units::seconds(30));
  store.insert(row(3, 3.0), units::seconds(90));
  // Cutoff at 90-60=30: t=0 expired, t=30 sits exactly on the boundary and
  // survives, t=90 is fresh.
  const std::int64_t freed = store.prune(units::seconds(90));
  EXPECT_GT(freed, 0);
  EXPECT_EQ(store.size(), 2u);
  store.prune(units::seconds(200));
  EXPECT_EQ(store.size(), 0u);
}

TEST(TupleStore, HistoryQueryRespectsWindow) {
  ASSERT_EQ(TupleStore::kHistoryRetention, units::seconds(60));
  TupleStore store;
  store.insert(row(1, 1.0), units::seconds(0));
  store.insert(row(2, 2.0), units::seconds(50));
  const auto at_70 = store.history(units::seconds(70));
  ASSERT_EQ(at_70.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(at_70[0].values[0]), 2);
}

TEST(TupleStore, LatestKeepsNewestPerKey) {
  ASSERT_EQ(TupleStore::kLatestRetention, units::seconds(30));
  ASSERT_EQ(TupleStore::kKeyColumn, 0u);
  TupleStore store;
  store.insert(row(1, 1.0), units::seconds(0));
  store.insert(row(1, 2.0), units::seconds(10));  // newer value for key 1
  store.insert(row(2, 5.0), units::seconds(10));
  const auto latest = store.latest(units::seconds(20));
  ASSERT_EQ(latest.size(), 2u);
  for (const auto& tuple : latest) {
    if (std::get<std::int64_t>(tuple.values[0]) == 1) {
      EXPECT_DOUBLE_EQ(std::get<double>(tuple.values[1]), 2.0);
    }
  }
}

TEST(TupleStore, LatestExpiresAfterRetention) {
  ASSERT_EQ(TupleStore::kLatestRetention, units::seconds(30));
  TupleStore store;
  store.insert(row(1, 1.0), units::seconds(0));
  EXPECT_EQ(store.latest(units::seconds(20)).size(), 1u);
  // After the latest-retention window the tuple is no longer "current"
  // even though history still holds it.
  EXPECT_EQ(store.latest(units::seconds(40)).size(), 0u);
  EXPECT_EQ(store.history(units::seconds(40)).size(), 1u);
}

TEST(TupleStore, InsertStampsTime) {
  TupleStore store;
  store.insert(row(1, 1.0), units::seconds(7));
  std::uint64_t cursor = 0;
  const auto tuples = since(store, cursor);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].inserted_at, units::seconds(7));
}

TEST(Tuple, WireSizeScalesWithContent) {
  Tuple small = row(1, 2.0);
  Tuple big = small;
  big.values.emplace_back(std::string(100, 'x'));
  EXPECT_GT(big.wire_size(), small.wire_size() + 100);
}

}  // namespace
}  // namespace gridmon::rgma
