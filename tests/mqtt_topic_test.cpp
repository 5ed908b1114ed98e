// MQTT topic filters: wildcard matching and filter validation edge cases.
#include <gtest/gtest.h>

#include "mqtt/sub_index.hpp"
#include "oracles/mqtt_topic.hpp"

namespace gridmon::mqtt {
namespace {

TEST(TopicFilter, ValidFilters) {
  EXPECT_TRUE(valid_filter("powergrid/feeder7/voltage"));
  EXPECT_TRUE(valid_filter("powergrid/+/voltage"));
  EXPECT_TRUE(valid_filter("powergrid/#"));
  EXPECT_TRUE(valid_filter("#"));
  EXPECT_TRUE(valid_filter("+"));
  EXPECT_TRUE(valid_filter("+/+/+"));
  EXPECT_TRUE(valid_filter("+/#"));
}

TEST(TopicFilter, InvalidFilters) {
  EXPECT_FALSE(valid_filter(""));
  // '#' must be the whole final level.
  EXPECT_FALSE(valid_filter("powergrid/#/voltage"));
  EXPECT_FALSE(valid_filter("powergrid/feeder#"));
  // '+' must be a whole level.
  EXPECT_FALSE(valid_filter("powergrid/feeder+/voltage"));
}

TEST(TopicFilter, ExactMatch) {
  EXPECT_TRUE(topic_matches("a/b/c", "a/b/c"));
  EXPECT_FALSE(topic_matches("a/b/c", "a/b"));
  EXPECT_FALSE(topic_matches("a/b", "a/b/c"));
  EXPECT_FALSE(topic_matches("a/b/c", "a/b/d"));
  // Levels are case-sensitive and empty strings never match.
  EXPECT_FALSE(topic_matches("a/B/c", "a/b/c"));
  EXPECT_FALSE(topic_matches("", "a"));
  EXPECT_FALSE(topic_matches("a", ""));
}

TEST(TopicFilter, SingleLevelWildcard) {
  EXPECT_TRUE(topic_matches("a/+/c", "a/b/c"));
  EXPECT_TRUE(topic_matches("+/b/c", "a/b/c"));
  EXPECT_TRUE(topic_matches("a/b/+", "a/b/c"));
  // '+' matches exactly one level, not zero and not two.
  EXPECT_FALSE(topic_matches("a/+", "a"));
  EXPECT_FALSE(topic_matches("a/+", "a/b/c"));
}

TEST(TopicFilter, MultiLevelWildcard) {
  EXPECT_TRUE(topic_matches("a/#", "a/b"));
  EXPECT_TRUE(topic_matches("a/#", "a/b/c/d"));
  // The spec's parent-inclusion rule: "sport/#" matches "sport".
  EXPECT_TRUE(topic_matches("a/#", "a"));
  EXPECT_TRUE(topic_matches("#", "a"));
  EXPECT_TRUE(topic_matches("#", "a/b/c"));
  EXPECT_FALSE(topic_matches("a/#", "b/c"));
}

TEST(TopicFilter, DollarTopicsHiddenFromWildcards) {
  // Filters starting with a wildcard must not match broker-internal
  // topics ('$SYS/...'), per MQTT 3.1.1.
  EXPECT_FALSE(topic_matches("#", "$SYS/broker/load"));
  EXPECT_FALSE(topic_matches("+/broker/load", "$SYS/broker/load"));
  // An explicit '$SYS' first level still matches.
  EXPECT_TRUE(topic_matches("$SYS/broker/load", "$SYS/broker/load"));
  EXPECT_TRUE(topic_matches("$SYS/#", "$SYS/broker/load"));
}

TEST(TopicFilter, GridTopics) {
  // The experiment family's shape: per-feeder per-generator samples under
  // one monitoring wildcard.
  EXPECT_TRUE(topic_matches("powergrid/#", "powergrid/feeder3/gen42"));
  EXPECT_TRUE(topic_matches("powergrid/#", "powergrid/status/gen42"));
  EXPECT_TRUE(topic_matches("powergrid/+/gen42", "powergrid/feeder3/gen42"));
  EXPECT_FALSE(topic_matches("powergrid/feeder3/+", "powergrid/feeder4/gen42"));
}

}  // namespace
}  // namespace gridmon::mqtt
