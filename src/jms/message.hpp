// JMS 1.1-style messages.
//
// A Message carries standard headers (JMSMessageID, JMSTimestamp,
// JMSDestination, JMSDeliveryMode, JMSPriority, ...), application-set
// properties (visible to selectors), and a typed body. The paper's workload
// uses MapMessage bodies with the exact field mix it describes (2 int,
// 5 float, 2 long, 3 double, 4 string).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "jms/value.hpp"
#include "util/units.hpp"

namespace gridmon::jms {

enum class DeliveryMode { kNonPersistent, kPersistent };

enum class AcknowledgeMode {
  kAutoAcknowledge,
  kClientAcknowledge,
  kDupsOkAcknowledge,
};

/// A message's properties or map entries: (name, value) pairs stored
/// contiguously in insertion order, one entry per name. A generator reading
/// carries 2 properties and 16 entries (17 with the Triple pad), so names
/// are found by a linear scan.
using Fields = std::vector<std::pair<std::string, Value>>;

/// MapMessage body: name → typed value.
struct MapBody {
  Fields entries;
};

/// TextMessage body.
struct TextBody {
  std::string text;
};

/// BytesMessage body; contents are opaque, only the size matters.
struct BytesBody {
  std::int64_t size = 0;
};

using Body = std::variant<std::monostate, MapBody, TextBody, BytesBody>;

class Message;
using MessagePtr = std::shared_ptr<const Message>;

class Message {
 public:
  Message() = default;

  // --- headers ---
  std::string message_id;
  std::string destination;  ///< topic name
  SimTime timestamp = 0;    ///< JMSTimestamp: set on send
  DeliveryMode delivery_mode = DeliveryMode::kNonPersistent;
  int priority = 4;  ///< JMS default priority
  std::string correlation_id;
  std::string type;
  SimTime expiration = 0;  ///< 0 = never

  // --- properties (selector-visible) ---
  /// Replaces the value of an existing property.
  void set_property(const std::string& name, Value value);
  /// Property lookup used by selectors: missing → NULL, plus the JMSX /
  /// JMS header pseudo-properties selectors may reference.
  [[nodiscard]] Value property(const std::string& name) const;
  [[nodiscard]] const Fields& properties() const { return properties_; }

  // --- body ---
  Body body;

  [[nodiscard]] bool is_map() const { return std::holds_alternative<MapBody>(body); }
  [[nodiscard]] bool is_text() const { return std::holds_alternative<TextBody>(body); }

  /// MapMessage accessors (throw if the body is not a map). map_set
  /// replaces the value of an existing entry.
  void map_set(const std::string& name, Value value);
  [[nodiscard]] Value map_get(const std::string& name) const;

  /// Approximate serialised size: headers + properties + body. A message
  /// made by share() returns the size measured there.
  [[nodiscard]] std::int64_t wire_size() const {
    return stored_size_.bytes >= 0 ? stored_size_.bytes : measure_wire_size();
  }

 private:
  friend MessagePtr share(Message message);

  /// The size share() measured. A copy or move starts without one: its
  /// headers and fields can still change.
  struct StoredSize {
    std::int64_t bytes = -1;
    StoredSize() = default;
    StoredSize(const StoredSize&) noexcept {}
    StoredSize& operator=(const StoredSize&) noexcept {
      bytes = -1;
      return *this;
    }
  };

  [[nodiscard]] std::int64_t measure_wire_size() const;

  Fields properties_;
  StoredSize stored_size_;
};

/// Freeze a message the provider has stamped (JMSMessageID, JMSTimestamp)
/// for sending: every hop shares it, and its wire size is measured once.
[[nodiscard]] MessagePtr share(Message message);

/// Convenience builders. make_map_message keeps the first of two entries
/// with the same name.
Message make_map_message(std::string destination, Fields entries);
Message make_text_message(std::string destination, std::string text);

}  // namespace gridmon::jms
