#include "core/payloads.hpp"

namespace gridmon::core {

jms::Message make_generator_message(const std::string& topic,
                                    std::int64_t generator_id,
                                    std::int64_t sequence, int origin_node,
                                    util::Rng& rng, std::int64_t pad_bytes) {
  jms::Message msg = jms::make_map_message(topic, {});

  // Selector-visible properties (the paper's subscriber uses "id<10000").
  msg.set_property("id", static_cast<std::int32_t>(generator_id));
  msg.set_property("node", static_cast<std::int32_t>(origin_node));

  // The names below are distinct, so each field is appended without a
  // lookup, one RNG draw per statement in a fixed order.
  auto& fields = std::get<jms::MapBody>(msg.body).entries;
  fields.reserve(pad_bytes > 0 ? 17 : 16);
  // Two int values.
  fields.emplace_back("gen_id", static_cast<std::int32_t>(generator_id));
  fields.emplace_back("status",
                      static_cast<std::int32_t>(rng.uniform_int(0, 3)));
  // Five float values.
  fields.emplace_back("power_kw", static_cast<float>(rng.uniform(0.0, 500.0)));
  fields.emplace_back("voltage",
                      static_cast<float>(rng.uniform(220.0, 240.0)));
  fields.emplace_back("current", static_cast<float>(rng.uniform(0.0, 100.0)));
  fields.emplace_back("frequency",
                      static_cast<float>(rng.uniform(49.8, 50.2)));
  fields.emplace_back("temperature",
                      static_cast<float>(rng.uniform(15.0, 95.0)));
  // Two long values.
  fields.emplace_back("seq", static_cast<std::int64_t>(sequence));
  fields.emplace_back("uptime_s", rng.uniform_int(0, 10'000'000));
  // Three double values.
  fields.emplace_back("energy_kwh", rng.uniform(0.0, 1e6));
  fields.emplace_back("efficiency", rng.uniform(0.2, 0.98));
  fields.emplace_back("load_pct", rng.uniform(0.0, 100.0));
  // Four string values.
  fields.emplace_back("name", "generator-" + std::to_string(generator_id));
  fields.emplace_back("site", "site-" + std::to_string(generator_id % 97));
  fields.emplace_back("model",
                      "WT-2000-rev" + std::to_string(generator_id % 7));
  fields.emplace_back("state",
                      std::string(rng.chance(0.98) ? "RUNNING" : "STARTING"));

  if (pad_bytes > 0) {
    fields.emplace_back("pad",
                        std::string(static_cast<std::size_t>(pad_bytes), 'x'));
  }
  return msg;
}

rgma::TableDef generator_table(const std::string& name) {
  using rgma::Column;
  using rgma::ColumnType;
  return rgma::TableDef(
      name,
      {
          Column{"id", ColumnType::kInteger, 0},
          Column{"seq", ColumnType::kInteger, 0},
          Column{"sent_us", ColumnType::kInteger, 0},
          Column{"status", ColumnType::kInteger, 0},
          Column{"power", ColumnType::kDouble, 0},
          Column{"voltage", ColumnType::kDouble, 0},
          Column{"current", ColumnType::kDouble, 0},
          Column{"frequency", ColumnType::kDouble, 0},
          Column{"temperature", ColumnType::kDouble, 0},
          Column{"pressure", ColumnType::kDouble, 0},
          Column{"efficiency", ColumnType::kDouble, 0},
          Column{"loadpct", ColumnType::kDouble, 0},
          Column{"name", ColumnType::kChar, 20},
          Column{"site", ColumnType::kChar, 20},
          Column{"model", ColumnType::kChar, 20},
          Column{"state", ColumnType::kChar, 20},
      });
}

std::vector<rgma::SqlValue> make_generator_row(std::int64_t generator_id,
                                               std::int64_t sequence,
                                               SimTime sent_at,
                                               util::Rng& rng) {
  std::vector<rgma::SqlValue> row;
  row.reserve(16);
  row.emplace_back(generator_id);
  row.emplace_back(sequence);
  row.emplace_back(static_cast<std::int64_t>(sent_at / 1000));  // µs
  row.emplace_back(rng.uniform_int(0, 3));
  row.emplace_back(rng.uniform(0.0, 500.0));
  row.emplace_back(rng.uniform(220.0, 240.0));
  row.emplace_back(rng.uniform(0.0, 100.0));
  row.emplace_back(rng.uniform(49.8, 50.2));
  row.emplace_back(rng.uniform(15.0, 95.0));
  row.emplace_back(rng.uniform(0.9, 1.1));
  row.emplace_back(rng.uniform(0.2, 0.98));
  row.emplace_back(rng.uniform(0.0, 100.0));
  row.emplace_back("gen-" + std::to_string(generator_id % 100000));
  row.emplace_back("site-" + std::to_string(generator_id % 97));
  row.emplace_back("WT-2000-r" + std::to_string(generator_id % 7));
  row.emplace_back(std::string(rng.chance(0.98) ? "RUNNING" : "STARTING"));
  return row;
}

}  // namespace gridmon::core
