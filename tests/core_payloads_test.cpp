#include "core/payloads.hpp"

#include <gtest/gtest.h>

namespace gridmon::core {
namespace {

TEST(Payloads, NaradaMessageHasThePaperFieldMix) {
  util::Rng rng(1);
  const jms::Message msg =
      make_generator_message("powergrid/monitoring", 42, 7, 3, rng);
  ASSERT_TRUE(msg.is_map());
  const auto& entries = std::get<jms::MapBody>(msg.body).entries;

  int ints = 0;
  int floats = 0;
  int longs = 0;
  int doubles = 0;
  int strings = 0;
  for (const auto& [name, value] : entries) {
    if (std::holds_alternative<std::int32_t>(value)) ++ints;
    if (std::holds_alternative<float>(value)) ++floats;
    if (std::holds_alternative<std::int64_t>(value)) ++longs;
    if (std::holds_alternative<double>(value)) ++doubles;
    if (std::holds_alternative<std::string>(value)) ++strings;
  }
  // §III.E: two int, five float, two long, three double, four string.
  EXPECT_EQ(ints, 2);
  EXPECT_EQ(floats, 5);
  EXPECT_EQ(longs, 2);
  EXPECT_EQ(doubles, 3);
  EXPECT_EQ(strings, 4);
}

TEST(Payloads, NaradaMessageCarriesSelectorProperties) {
  util::Rng rng(1);
  const jms::Message msg = make_generator_message("t", 42, 7, 3, rng);
  EXPECT_EQ(std::get<std::int32_t>(msg.property("id")), 42);
  EXPECT_EQ(std::get<std::int32_t>(msg.property("node")), 3);
  EXPECT_EQ(std::get<std::int64_t>(msg.map_get("seq")), 7);
  EXPECT_EQ(msg.destination, "t");
}

// Pins the standard message's wire size and RNG draw order: a change that
// reorders the draws moves `status`, `power_kw` or `state`.
TEST(Payloads, NaradaMessagePinnedAtSeed1) {
  util::Rng rng(1);
  const jms::Message msg =
      make_generator_message("powergrid/monitoring", 42, 7, 3, rng);
  EXPECT_EQ(msg.wire_size(), 395);
  EXPECT_EQ(std::get<std::int32_t>(msg.map_get("status")), 1);
  EXPECT_EQ(std::get<float>(msg.map_get("power_kw")), 260.218323f);
  EXPECT_EQ(std::get<std::string>(msg.map_get("state")), "RUNNING");
}

TEST(Payloads, PaddingGrowsTheWireSize) {
  util::Rng rng1(1);
  util::Rng rng2(1);
  const auto base = make_generator_message("t", 1, 0, 0, rng1, 0);
  const auto padded = make_generator_message("t", 1, 0, 0, rng2, 860);
  EXPECT_GE(padded.wire_size() - base.wire_size(), 860);
}

TEST(Payloads, RgmaTableHasThePaperColumnMix) {
  const rgma::TableDef table = generator_table("generators");
  EXPECT_EQ(table.name(), "generators");
  ASSERT_EQ(table.column_count(), 16u);
  int ints = 0;
  int doubles = 0;
  int chars = 0;
  for (const auto& column : table.columns()) {
    if (column.type == rgma::ColumnType::kInteger) ++ints;
    if (column.type == rgma::ColumnType::kDouble) ++doubles;
    if (column.type == rgma::ColumnType::kChar) {
      ++chars;
      EXPECT_EQ(column.width, 20);
    }
  }
  // §III.F: four integer, eight double and four char(20) values.
  EXPECT_EQ(ints, 4);
  EXPECT_EQ(doubles, 8);
  EXPECT_EQ(chars, 4);
}

TEST(Payloads, RgmaRowValidatesAgainstTheTable) {
  util::Rng rng(5);
  const auto table = generator_table("generators");
  for (int i = 0; i < 20; ++i) {
    const auto row =
        make_generator_row(i, i * 10, units::seconds(i), rng);
    EXPECT_FALSE(table.validate(row).has_value())
        << table.validate(row).value_or("");
  }
}

TEST(Payloads, RowEmbedsIdSeqAndSendTime) {
  util::Rng rng(5);
  const auto row = make_generator_row(42, 7, units::seconds(90), rng);
  EXPECT_EQ(std::get<std::int64_t>(row[kRowIdColumn]), 42);
  EXPECT_EQ(std::get<std::int64_t>(row[kRowSeqColumn]), 7);
  // sent_us is microseconds.
  EXPECT_EQ(std::get<std::int64_t>(row[kRowSentColumn]), 90'000'000);
}

TEST(Payloads, DeterministicForSameRngState) {
  util::Rng a(9);
  util::Rng b(9);
  const auto m1 = make_generator_message("t", 1, 2, 3, a);
  const auto m2 = make_generator_message("t", 1, 2, 3, b);
  EXPECT_EQ(std::get<jms::MapBody>(m1.body).entries,
            std::get<jms::MapBody>(m2.body).entries);
}

}  // namespace
}  // namespace gridmon::core
