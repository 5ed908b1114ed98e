// The subscription index must be observationally identical to a linear
// per-session topic_matches() scan: same sessions, best (maximum) granted
// QoS per session, client-id order — across wildcards, '$'-topic hiding,
// empty levels, and the tolerated-but-invalid mid-filter '#'. A seeded
// randomized sweep cross-checks the index against a brute-force model
// that scans each session's filters.
#include "mqtt/sub_index.hpp"

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/memprof.hpp"

namespace gridmon::mqtt {
namespace {

struct ModelSub {
  std::string filter;
  int qos;
};

struct ModelSession {
  std::string client;
  std::vector<ModelSub> subs;
};

/// Brute-force reference: per session, matched iff any filter matches, at
/// the maximum granted QoS among the matching filters, ordered by client.
std::vector<std::pair<std::string, int>> reference_match(
    const std::vector<ModelSession>& sessions, std::string_view topic) {
  std::vector<std::pair<std::string, int>> out;
  for (const auto& session : sessions) {
    int best = -1;
    for (const auto& sub : session.subs) {
      if (topic_matches(sub.filter, topic)) best = std::max(best, sub.qos);
    }
    if (best >= 0) out.emplace_back(session.client, best);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, int>> index_match(
    const SubscriptionIndex& index, std::string_view topic) {
  std::vector<SubscriptionIndex::Match> matches;
  index.match(topic, matches);
  std::vector<std::pair<std::string, int>> out;
  for (const auto& m : matches) out.emplace_back(*m.client, m.qos);
  return out;
}

TEST(SubscriptionIndex, RandomizedEquivalenceWithLinearScan) {
  // Level pools deliberately include wildcards in non-final positions,
  // empty levels, '$'-prefixed levels, and '+'-containing literals — the
  // broker never validates filters, so neither may the index.
  const std::vector<std::string> filter_levels = {
      "a", "b", "c", "+", "#", "$SYS", "", "x", "+x"};
  const std::vector<std::string> topic_levels = {"a",    "b", "c",
                                                 "$SYS", "",  "x"};
  std::mt19937_64 rng(8088ULL);

  std::vector<ModelSession> sessions(40);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    sessions[i].client = "c" + std::to_string(100 + i);
    const auto sub_count = 1 + rng() % 3;
    for (std::uint64_t s = 0; s < sub_count; ++s) {
      std::string filter;
      const auto levels = 1 + rng() % 4;
      for (std::uint64_t l = 0; l < levels; ++l) {
        if (l > 0) filter += '/';
        filter += filter_levels[rng() % filter_levels.size()];
      }
      // A repeat subscribe to the same filter replaces the grant (both in
      // the broker's filter map and in the index), so the model must too.
      const int qos = static_cast<int>(rng() % 3);
      auto existing = std::find_if(
          sessions[i].subs.begin(), sessions[i].subs.end(),
          [&](const ModelSub& sub) { return sub.filter == filter; });
      if (existing != sessions[i].subs.end()) {
        existing->qos = qos;
      } else {
        sessions[i].subs.push_back({filter, qos});
      }
    }
  }

  SubscriptionIndex index;
  for (auto& session : sessions) {
    for (const auto& sub : session.subs) {
      index.subscribe(sub.filter, session.client, &session, sub.qos);
    }
  }

  for (int t = 0; t < 2000; ++t) {
    std::string topic;
    const auto levels = rng() % 5;  // zero levels = empty topic
    for (std::uint64_t l = 0; l < levels; ++l) {
      if (l > 0) topic += '/';
      topic += topic_levels[rng() % topic_levels.size()];
    }
    ASSERT_EQ(index_match(index, topic), reference_match(sessions, topic))
        << "topic '" << topic << "'";
  }
}

TEST(SubscriptionIndex, MatchesTopicFilterCornerCases) {
  const std::string client = "sub";
  int handle = 0;
  const auto only = [&](const char* filter, const char* topic) {
    SubscriptionIndex index;
    index.subscribe(filter, client, &handle, 0);
    std::vector<SubscriptionIndex::Match> matches;
    index.match(topic, matches);
    EXPECT_EQ(matches.size() == 1, topic_matches(filter, topic))
        << "'" << filter << "' vs '" << topic << "'";
    return matches.size() == 1;
  };
  // Trailing '#' matches the parent topic itself and any remainder.
  EXPECT_TRUE(only("sport/#", "sport"));
  EXPECT_TRUE(only("sport/#", "sport/tennis/player1"));
  EXPECT_FALSE(only("sport/#", "sports"));
  // Tolerated-but-invalid mid-filter '#': any non-empty remainder, but
  // not exhaustion at the '#'.
  EXPECT_FALSE(only("sport/#/x", "sport"));
  EXPECT_TRUE(only("sport/#/x", "sport/y"));
  EXPECT_TRUE(only("sport/#/x", "sport/y/z"));
  // Root-level wildcards never match broker-internal '$' topics; deeper
  // wildcards are fine, and a literal '$SYS' root matches.
  EXPECT_FALSE(only("#", "$SYS/broker/load"));
  EXPECT_FALSE(only("+/broker/load", "$SYS/broker/load"));
  EXPECT_TRUE(only("$SYS/#", "$SYS/broker/load"));
  EXPECT_TRUE(only("$SYS/+/load", "$SYS/broker/load"));
  // '+' and '#' are wildcards only as whole levels.
  EXPECT_FALSE(only("a/+x", "a/b"));
  EXPECT_TRUE(only("a/+x", "a/+x"));
  // Empty levels are real levels; empty filters and topics never match.
  EXPECT_TRUE(only("a//b", "a//b"));
  EXPECT_FALSE(only("a//b", "a/b"));
  EXPECT_TRUE(only("a/+/b", "a//b"));
  EXPECT_FALSE(only("", "a"));
  EXPECT_FALSE(only("a", ""));
  EXPECT_FALSE(only("#", ""));
}

TEST(SubscriptionIndex, DeliversOncePerSessionAtBestGrant) {
  const std::string alice = "alice";
  const std::string bob = "bob";
  int alice_handle = 0;
  int bob_handle = 0;
  SubscriptionIndex index;
  // Alice holds three overlapping filters at different grants; one publish
  // must reach her exactly once at the maximum matching grant.
  index.subscribe("powergrid/#", alice, &alice_handle, 0);
  index.subscribe("powergrid/feeder1/+", alice, &alice_handle, 2);
  index.subscribe("powergrid/+/gen0", alice, &alice_handle, 1);
  index.subscribe("powergrid/feeder1/gen0", bob, &bob_handle, 1);

  std::vector<SubscriptionIndex::Match> matches;
  index.match("powergrid/feeder1/gen0", matches);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(*matches[0].client, "alice");  // client-id order
  EXPECT_EQ(matches[0].handle, &alice_handle);
  EXPECT_EQ(matches[0].qos, 2);
  EXPECT_EQ(*matches[1].client, "bob");
  EXPECT_EQ(matches[1].qos, 1);

  // A topic matching only the broad filter gets the low grant.
  index.match("powergrid/feeder2/gen7", matches);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].qos, 0);
}

TEST(SubscriptionIndex, ResubscribeReplacesGrantInPlace) {
  const std::string client = "sub";
  int handle = 0;
  SubscriptionIndex index;
  index.subscribe("a/b", client, &handle, 0);
  EXPECT_EQ(index.entry_count(), 1u);
  index.subscribe("a/b", client, &handle, 2);
  EXPECT_EQ(index.entry_count(), 1u);

  std::vector<SubscriptionIndex::Match> matches;
  index.match("a/b", matches);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].qos, 2);
}

TEST(SubscriptionIndex, RemoveAndClearReleaseAccounting) {
  // The memprof hooks compile to nothing in a GRIDMON_OBS=OFF build.
  if (!obs::kMemEnabled) GTEST_SKIP() << "built with GRIDMON_OBS=OFF";
  obs::MemProfile profile;
  obs::ScopedMemProfile scope(&profile);
  const std::string a = "a-client";
  const std::string b = "b-client";
  int handle_a = 0;
  int handle_b = 0;
  {
    SubscriptionIndex index;
    index.subscribe("powergrid/+/voltage", a, &handle_a, 1);
    index.subscribe("powergrid/+/voltage", b, &handle_b, 1);
    index.subscribe("powergrid/#", a, &handle_a, 0);
    EXPECT_EQ(index.entry_count(), 3u);
    EXPECT_EQ(index.footprint_bytes(), 3 * kSubscriptionBytes);
    EXPECT_EQ(profile.live(obs::MemCategory::kMqttSubIndex),
              index.footprint_bytes());

    // Removing one (filter, handle) pair leaves the other session's entry
    // for the same filter untouched.
    index.remove("powergrid/+/voltage", &handle_a);
    EXPECT_EQ(index.entry_count(), 2u);
    std::vector<SubscriptionIndex::Match> matches;
    index.match("powergrid/feeder1/voltage", matches);
    ASSERT_EQ(matches.size(), 2u);  // a via '#', b via '+'
    EXPECT_EQ(*matches[0].client, a);
    EXPECT_EQ(matches[0].qos, 0);

    index.remove("powergrid/+/voltage", &handle_a);  // no-op: already gone
    EXPECT_EQ(index.entry_count(), 2u);
    EXPECT_EQ(index.footprint_bytes(), 2 * kSubscriptionBytes);

    // Removing the last entries releases their whole charge.
    index.remove("powergrid/+/voltage", &handle_b);
    index.remove("powergrid/#", &handle_a);
    EXPECT_EQ(index.entry_count(), 0u);
    EXPECT_EQ(index.footprint_bytes(), 0);
    EXPECT_EQ(profile.live(obs::MemCategory::kMqttSubIndex), 0);

    index.subscribe("powergrid/#", b, &handle_b, 1);
    EXPECT_EQ(profile.live(obs::MemCategory::kMqttSubIndex),
              kSubscriptionBytes);
    index.clear();
    EXPECT_EQ(index.entry_count(), 0u);
    EXPECT_EQ(index.footprint_bytes(), 0);
    EXPECT_EQ(profile.live(obs::MemCategory::kMqttSubIndex), 0);

    // The index stays usable after a crash-clear.
    index.subscribe("a", a, &handle_a, 0);
    index.match("a", matches);
    EXPECT_EQ(matches.size(), 1u);
  }
  // Destructor releases the remaining accounting.
  EXPECT_EQ(profile.live(obs::MemCategory::kMqttSubIndex), 0);
}

}  // namespace
}  // namespace gridmon::mqtt
