#include "jms/message.hpp"

#include <stdexcept>
#include <string_view>

namespace gridmon::jms {
namespace {

const Value* find_field(const Fields& fields, std::string_view name) {
  for (const auto& [key, value] : fields) {
    if (key == name) return &value;
  }
  return nullptr;
}

void set_field(Fields& fields, const std::string& name, Value value) {
  for (auto& [key, stored] : fields) {
    if (key == name) {
      stored = std::move(value);
      return;
    }
  }
  // Messages carry a few properties: start with room for four rather than
  // reallocating at the first and second append.
  if (fields.empty()) fields.reserve(4);
  fields.emplace_back(name, std::move(value));
}

}  // namespace

void Message::set_property(const std::string& name, Value value) {
  set_field(properties_, name, std::move(value));
}

Value Message::property(const std::string& name) const {
  // Header pseudo-properties (JMS 1.1 §3.8.1.1).
  if (name == "JMSPriority") return static_cast<std::int32_t>(priority);
  if (name == "JMSTimestamp") return static_cast<std::int64_t>(timestamp);
  if (name == "JMSMessageID") {
    return message_id.empty() ? Value{NullValue{}} : Value{message_id};
  }
  if (name == "JMSCorrelationID") {
    return correlation_id.empty() ? Value{NullValue{}} : Value{correlation_id};
  }
  if (name == "JMSType") {
    return type.empty() ? Value{NullValue{}} : Value{type};
  }
  if (name == "JMSDeliveryMode") {
    return std::string(delivery_mode == DeliveryMode::kPersistent
                           ? "PERSISTENT"
                           : "NON_PERSISTENT");
  }
  const Value* value = find_field(properties_, name);
  return value != nullptr ? *value : Value{NullValue{}};
}

void Message::map_set(const std::string& name, Value value) {
  auto* map = std::get_if<MapBody>(&body);
  if (map == nullptr) {
    if (std::holds_alternative<std::monostate>(body)) {
      body = MapBody{};
      map = std::get_if<MapBody>(&body);
    } else {
      throw std::logic_error("Message::map_set on a non-map body");
    }
  }
  set_field(map->entries, name, std::move(value));
}

Value Message::map_get(const std::string& name) const {
  const auto* map = std::get_if<MapBody>(&body);
  if (map == nullptr) {
    throw std::logic_error("Message::map_get on a non-map body");
  }
  const Value* value = find_field(map->entries, name);
  return value != nullptr ? *value : Value{NullValue{}};
}

std::int64_t Message::measure_wire_size() const {
  // Fixed headers: ids, timestamps, destination, flags.
  std::int64_t size = 96 + static_cast<std::int64_t>(destination.size() +
                                                     message_id.size() +
                                                     correlation_id.size());
  for (const auto& [name, value] : properties_) {
    size += static_cast<std::int64_t>(name.size()) + 2 + jms::wire_size(value);
  }
  struct BodySizer {
    std::int64_t operator()(const std::monostate&) const { return 0; }
    std::int64_t operator()(const MapBody& map) const {
      std::int64_t total = 4;
      for (const auto& [name, value] : map.entries) {
        total += static_cast<std::int64_t>(name.size()) + 2 +
                 jms::wire_size(value);
      }
      return total;
    }
    std::int64_t operator()(const TextBody& text) const {
      return 4 + static_cast<std::int64_t>(text.text.size());
    }
    std::int64_t operator()(const BytesBody& bytes) const {
      return 4 + bytes.size;
    }
  };
  return size + std::visit(BodySizer{}, body);
}

MessagePtr share(Message message) {
  auto shared = std::make_shared<Message>(std::move(message));
  shared->stored_size_.bytes = shared->measure_wire_size();
  return shared;
}

Message make_map_message(std::string destination, Fields entries) {
  Message msg;
  msg.destination = std::move(destination);
  auto& map = msg.body.emplace<MapBody>().entries;
  map.reserve(entries.size());
  for (auto& [name, value] : entries) {
    if (find_field(map, name) == nullptr) {
      map.emplace_back(std::move(name), std::move(value));
    }
  }
  return msg;
}

Message make_text_message(std::string destination, std::string text) {
  Message msg;
  msg.destination = std::move(destination);
  msg.body = TextBody{std::move(text)};
  return msg;
}

}  // namespace gridmon::jms
