#include "narada/bnm.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace gridmon::narada {
namespace {

TEST(BrokerNetworkMap, AddBrokersAndLinks) {
  BrokerNetworkMap map;
  EXPECT_EQ(map.broker_count(), 0);
  EXPECT_EQ(map.add_broker(), 0);
  EXPECT_EQ(map.add_broker(), 1);
  EXPECT_EQ(map.add_broker(), 2);
  map.add_link(0, 1);
  EXPECT_TRUE(map.linked(0, 1));
  EXPECT_TRUE(map.linked(1, 0));
  EXPECT_FALSE(map.linked(0, 2));
}

TEST(BrokerNetworkMap, RejectsBadInput) {
  BrokerNetworkMap map(3);
  EXPECT_THROW(map.add_link(0, 0), std::invalid_argument);
  EXPECT_THROW(map.add_link(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(map.add_link(0, 5), std::out_of_range);
  EXPECT_THROW((void)map.distance(-1, 0), std::out_of_range);
  EXPECT_THROW(BrokerNetworkMap(-2), std::invalid_argument);
}

TEST(BrokerNetworkMap, ShortestPathInChain) {
  BrokerNetworkMap map(4);
  map.add_link(0, 1);
  map.add_link(1, 2);
  map.add_link(2, 3);
  EXPECT_DOUBLE_EQ(map.distance(0, 3), 3.0);
  EXPECT_EQ(map.shortest_path(0, 3), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(map.next_hop(0, 3), 1);
  EXPECT_EQ(map.next_hop(1, 3), 2);
  EXPECT_EQ(map.next_hop(3, 0), 2);
}

TEST(BrokerNetworkMap, PrefersCheaperLongerPath) {
  BrokerNetworkMap map(4);
  map.add_link(0, 3, 10.0);  // direct but expensive
  map.add_link(0, 1, 1.0);
  map.add_link(1, 2, 1.0);
  map.add_link(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(map.distance(0, 3), 3.0);
  EXPECT_EQ(map.next_hop(0, 3), 1);
}

TEST(BrokerNetworkMap, FullMeshIsSingleHop) {
  BrokerNetworkMap map(4);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) map.add_link(a, b);
  }
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) continue;
      EXPECT_DOUBLE_EQ(map.distance(a, b), 1.0);
      EXPECT_EQ(map.next_hop(a, b), b);
    }
  }
}

TEST(BrokerNetworkMap, UnreachableBrokers) {
  BrokerNetworkMap map(3);
  map.add_link(0, 1);
  EXPECT_EQ(map.distance(0, 2), BrokerNetworkMap::kUnreachable);
  EXPECT_TRUE(map.shortest_path(0, 2).empty());
  EXPECT_EQ(map.next_hop(0, 2), -1);
}

TEST(BrokerNetworkMap, SelfRouting) {
  BrokerNetworkMap map(2);
  map.add_link(0, 1);
  EXPECT_DOUBLE_EQ(map.distance(0, 0), 0.0);
  EXPECT_EQ(map.next_hop(0, 0), -1);
  EXPECT_EQ(map.shortest_path(0, 0), (std::vector<int>{0}));
}

TEST(BrokerNetworkMap, Neighbours) {
  BrokerNetworkMap map(4);
  map.add_link(0, 1);
  map.add_link(0, 2);
  const auto n = map.neighbours(0);
  EXPECT_EQ(n.size(), 2u);
  EXPECT_EQ(map.neighbours(3).size(), 0u);
}

/// Property: in a random connected graph, following next_hop from any
/// source reaches the destination within broker_count steps (no routing
/// loops), and path costs are symmetric.
class BnmRoutingProperty : public ::testing::TestWithParam<int> {};

TEST_P(BnmRoutingProperty, NextHopConvergesWithoutLoops) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 101);
  const int n = 8;
  BrokerNetworkMap map(n);
  // Random spanning tree guarantees connectivity, plus random extra edges.
  for (int v = 1; v < n; ++v) {
    const int u = static_cast<int>(rng.uniform_int(0, v - 1));
    map.add_link(u, v, rng.uniform(0.5, 4.0));
  }
  for (int extra = 0; extra < 5; ++extra) {
    const int a = static_cast<int>(rng.uniform_int(0, n - 1));
    const int b = static_cast<int>(rng.uniform_int(0, n - 1));
    if (a != b && !map.linked(a, b)) map.add_link(a, b, rng.uniform(0.5, 4.0));
  }
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      EXPECT_NEAR(map.distance(src, dst), map.distance(dst, src), 1e-12);
      int at = src;
      int hops = 0;
      while (at != dst) {
        at = map.next_hop(at, dst);
        ASSERT_GE(at, 0);
        ASSERT_LE(++hops, n);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnmRoutingProperty, ::testing::Range(1, 13));

}  // namespace
}  // namespace gridmon::narada
