#include "jms/message.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "jms/value.hpp"
#include "util/rng.hpp"

namespace gridmon::jms {
namespace {

TEST(Value, TypePredicates) {
  EXPECT_TRUE(is_null(Value{NullValue{}}));
  EXPECT_TRUE(is_bool(Value{true}));
  EXPECT_TRUE(is_numeric(Value{std::int32_t{1}}));
  EXPECT_TRUE(is_numeric(Value{std::int64_t{1}}));
  EXPECT_TRUE(is_numeric(Value{1.0f}));
  EXPECT_TRUE(is_numeric(Value{1.0}));
  EXPECT_FALSE(is_numeric(Value{true}));
  EXPECT_FALSE(is_numeric(Value{std::string("x")}));
  EXPECT_TRUE(is_integral(Value{std::int32_t{1}}));
  EXPECT_FALSE(is_integral(Value{1.0}));
  EXPECT_TRUE(is_string(Value{std::string("x")}));
}

TEST(Value, NumericConversions) {
  EXPECT_DOUBLE_EQ(as_double(Value{std::int32_t{4}}), 4.0);
  EXPECT_DOUBLE_EQ(as_double(Value{2.5f}), 2.5);
  EXPECT_DOUBLE_EQ(as_double(Value{std::int64_t{1} << 40}),
                   static_cast<double>(std::int64_t{1} << 40));
  EXPECT_EQ(as_int64(Value{std::int32_t{-3}}), -3);
  EXPECT_THROW((void)as_double(Value{std::string("x")}), std::logic_error);
  EXPECT_THROW((void)as_int64(Value{1.5}), std::logic_error);
}

TEST(Value, WireSizes) {
  EXPECT_EQ(wire_size(Value{NullValue{}}), 1);
  EXPECT_EQ(wire_size(Value{true}), 1);
  EXPECT_EQ(wire_size(Value{std::int32_t{1}}), 4);
  EXPECT_EQ(wire_size(Value{std::int64_t{1}}), 8);
  EXPECT_EQ(wire_size(Value{1.0f}), 4);
  EXPECT_EQ(wire_size(Value{1.0}), 8);
  EXPECT_EQ(wire_size(Value{std::string("abcd")}), 6);
}

TEST(Value, ToString) {
  EXPECT_EQ(to_string(Value{NullValue{}}), "NULL");
  EXPECT_EQ(to_string(Value{true}), "TRUE");
  EXPECT_EQ(to_string(Value{std::int32_t{42}}), "42");
  EXPECT_EQ(to_string(Value{std::string("hi")}), "'hi'");
}

TEST(Message, PropertiesRoundTrip) {
  Message msg;
  msg.set_property("id", std::int32_t{7});
  msg.set_property("name", std::string("g1"));
  EXPECT_EQ(std::get<std::int32_t>(msg.property("id")), 7);
  EXPECT_EQ(std::get<std::string>(msg.property("name")), "g1");
  EXPECT_TRUE(is_null(msg.property("missing")));
}

TEST(Message, HeaderPseudoProperties) {
  Message msg;
  msg.priority = 7;
  msg.timestamp = 1234;
  msg.message_id = "ID:x";
  msg.type = "reading";
  EXPECT_EQ(std::get<std::int32_t>(msg.property("JMSPriority")), 7);
  EXPECT_EQ(std::get<std::int64_t>(msg.property("JMSTimestamp")), 1234);
  EXPECT_EQ(std::get<std::string>(msg.property("JMSMessageID")), "ID:x");
  EXPECT_EQ(std::get<std::string>(msg.property("JMSType")), "reading");
  EXPECT_EQ(std::get<std::string>(msg.property("JMSDeliveryMode")),
            "NON_PERSISTENT");
  msg.delivery_mode = DeliveryMode::kPersistent;
  EXPECT_EQ(std::get<std::string>(msg.property("JMSDeliveryMode")),
            "PERSISTENT");
  // Unset string headers read as NULL.
  Message empty;
  EXPECT_TRUE(is_null(empty.property("JMSMessageID")));
  EXPECT_TRUE(is_null(empty.property("JMSCorrelationID")));
}

TEST(Message, MapBodyOperations) {
  Message msg = make_map_message("t", {{"a", Value{std::int32_t{1}}}});
  EXPECT_TRUE(msg.is_map());
  EXPECT_EQ(std::get<std::int32_t>(msg.map_get("a")), 1);
  msg.map_set("b", 2.0);
  EXPECT_DOUBLE_EQ(std::get<double>(msg.map_get("b")), 2.0);
  EXPECT_TRUE(is_null(msg.map_get("missing")));
}

TEST(Message, MapSetOnEmptyBodyCreatesMap) {
  Message msg;
  msg.map_set("k", std::string("v"));
  EXPECT_TRUE(msg.is_map());
}

TEST(Message, MapAccessOnTextBodyThrows) {
  Message msg = make_text_message("t", "hello");
  EXPECT_TRUE(msg.is_text());
  EXPECT_THROW(msg.map_set("k", Value{1.0}), std::logic_error);
  EXPECT_THROW(msg.map_get("k"), std::logic_error);
}

TEST(Message, WireSizeGrowsWithContent) {
  Message small = make_map_message("topic", {});
  Message big = small;
  for (int i = 0; i < 16; ++i) {
    big.map_set("field" + std::to_string(i), 1.0);
  }
  EXPECT_GT(big.wire_size(), small.wire_size());

  Message with_props = small;
  with_props.set_property("p", std::string("value"));
  EXPECT_GT(with_props.wire_size(), small.wire_size());

  Message bytes = small;
  bytes.body = BytesBody{10'000};
  EXPECT_GT(bytes.wire_size(), small.wire_size() + 9'000);
}

TEST(Message, PaperPayloadIsAFewHundredBytes) {
  // The 2 int + 5 float + 2 long + 3 double + 4 string MapMessage should be
  // in the hundreds of bytes once headers are included (the Triple test
  // scales it 3x).
  Message msg = make_map_message("powergrid/monitoring", {});
  msg.map_set("i1", std::int32_t{1});
  msg.map_set("i2", std::int32_t{2});
  for (int i = 0; i < 5; ++i) msg.map_set("f" + std::to_string(i), 1.0f);
  msg.map_set("l1", std::int64_t{1});
  msg.map_set("l2", std::int64_t{2});
  for (int i = 0; i < 3; ++i) msg.map_set("d" + std::to_string(i), 1.0);
  for (int i = 0; i < 4; ++i) {
    msg.map_set("s" + std::to_string(i), std::string("generator-value"));
  }
  EXPECT_GT(msg.wire_size(), 250);
  EXPECT_LT(msg.wire_size(), 800);
}

TEST(Message, SettingAnExistingNameReplacesIt) {
  Message msg = make_map_message("t", {});
  msg.map_set("a", std::int32_t{1});
  msg.map_set("b", 2.0);
  msg.map_set("a", std::string("again"));
  EXPECT_EQ(std::get<std::string>(msg.map_get("a")), "again");
  EXPECT_EQ(std::get<MapBody>(msg.body).entries.size(), 2u);

  msg.set_property("p", std::int32_t{1});
  msg.set_property("p", std::int64_t{2});
  EXPECT_EQ(std::get<std::int64_t>(msg.property("p")), 2);
  EXPECT_EQ(msg.properties().size(), 1u);
}

TEST(Message, MakeMapMessageKeepsTheFirstDuplicate) {
  const Message msg = make_map_message(
      "t", {{"a", Value{std::int32_t{1}}}, {"b", Value{true}},
            {"a", Value{std::int32_t{2}}}});
  EXPECT_EQ(std::get<std::int32_t>(msg.map_get("a")), 1);
  EXPECT_EQ(std::get<MapBody>(msg.body).entries.size(), 2u);
}

TEST(Message, FieldsIterateInInsertionOrder) {
  Message msg;
  for (const char* name : {"zeta", "alpha", "mid"}) {
    msg.map_set(name, std::int32_t{0});
    msg.set_property(name, std::int32_t{0});
  }
  msg.map_set("alpha", std::int32_t{1});  // replaced in place
  std::vector<std::string> body_names;
  for (const auto& [name, value] : std::get<MapBody>(msg.body).entries) {
    body_names.push_back(name);
  }
  std::vector<std::string> property_names;
  for (const auto& [name, value] : msg.properties()) {
    property_names.push_back(name);
  }
  const std::vector<std::string> expected = {"zeta", "alpha", "mid"};
  EXPECT_EQ(body_names, expected);
  EXPECT_EQ(property_names, expected);
}

// A random value of any of the seven types; strings run past the 15-char
// small-string buffer.
Value random_value(util::Rng& rng) {
  switch (rng.uniform_int(0, 6)) {
    case 0: return NullValue{};
    case 1: return rng.chance(0.5);
    case 2: return static_cast<std::int32_t>(rng.uniform_int(-100, 100));
    case 3: return rng.uniform_int(0, 1'000'000'000'000);
    case 4: return static_cast<float>(rng.uniform(0.0, 1.0));
    case 5: return rng.uniform(0.0, 1e6);
    default:
      return std::string(static_cast<std::size_t>(rng.uniform_int(0, 40)),
                         'v');
  }
}

TEST(Message, SharedWireSizeMatchesAFreshMeasurement) {
  util::Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    Message msg = make_map_message(
        "powergrid/gen" + std::to_string(trial), {});
    msg.message_id = "ID:" + std::to_string(rng.uniform_int(0, 1 << 20));
    msg.correlation_id = std::string(
        static_cast<std::size_t>(rng.uniform_int(0, 20)), 'c');
    msg.timestamp = rng.uniform_int(0, 1'000'000);
    const auto properties = rng.uniform_int(0, 3);
    for (std::int64_t i = 0; i < properties; ++i) {
      msg.set_property("property_name_" + std::to_string(i),
                       random_value(rng));
    }
    const auto entries = rng.uniform_int(0, 17);
    for (std::int64_t i = 0; i < entries; ++i) {
      const auto name = std::to_string(rng.uniform_int(0, 20));
      msg.map_set("field_" + name, random_value(rng));
    }
    if (rng.chance(0.3)) msg.map_set("pad", std::string(2 * 430, 'x'));

    const std::int64_t fresh = msg.wire_size();
    EXPECT_EQ(share(msg)->wire_size(), fresh) << "trial " << trial;
  }
}

TEST(Message, CopyOfASharedMessageIsMeasuredAfresh) {
  Message msg = make_map_message("t", {{"a", Value{1.0}}});
  msg.message_id = "ID:1";
  const MessagePtr shared = share(msg);
  const std::int64_t before = shared->wire_size();

  Message copy = *shared;
  copy.message_id = "ID:1-with-a-longer-suffix";
  EXPECT_EQ(copy.wire_size(), before + 21);
  EXPECT_EQ(shared->wire_size(), before);

  Message moved = std::move(copy);
  moved.map_set("b", std::int32_t{2});
  EXPECT_EQ(moved.wire_size(), before + 21 + 1 + 2 + 4);
}

}  // namespace
}  // namespace gridmon::jms
