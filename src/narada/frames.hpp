// Wire frames exchanged on Narada client links and broker-broker links.
// Carried as shared_ptr payloads through the simulated transports; the
// fields below are what the real protocol would serialise.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "jms/message.hpp"
#include "net/address.hpp"

namespace gridmon::narada {

enum class FrameKind {
  kSubscribe,
  kUnsubscribe,
  kPublish,
  kClientAck,
  kDeliver,
  kForward,        ///< broker → broker event relay
  kPeerSubscribe,  ///< broker → broker subscription advertisement
  kBackfillRequest,  ///< gap replay ask (client → broker, broker → peer)
  kBackfillReply,    ///< per-origin served-upto summary closing a backfill
};

/// Per-origin replay cursor carried by backfill frames. In a request `seq`
/// is the newest sequence the requester has seen from that origin; in a
/// reply it is the newest sequence the server retains (`truncated` = part
/// of the requested gap was already evicted, i.e. honestly lost).
struct BackfillCursor {
  int origin = -1;
  std::uint64_t seq = 0;
  bool truncated = false;
};

struct Frame {
  FrameKind kind;
  std::string topic;
  std::string selector;             ///< kSubscribe only
  jms::MessagePtr message;          ///< kPublish / kDeliver / kForward
  int origin_broker = -1;           ///< kForward: broker the event entered at
  net::Endpoint reply_to;           ///< kSubscribe over UDP: delivery address
  /// Sender-side message aggregation (the RMM technique from the paper's
  /// related work, §IV): several publishes to the same destination carried
  /// in one wire frame. Non-empty only for aggregated kPublish frames and
  /// the kForward frames that relay them.
  std::vector<jms::MessagePtr> batch{};
  // Backfill replication fields (all zero/empty unless the run enabled
  // replay, so replay-off frames — and their wire sizes — are unchanged).
  /// Per-(topic, origin) retention sequence stamped by the origin broker.
  std::uint64_t history_seq = 0;
  /// Sequence of the previous message this subscriber's selector matched
  /// (per origin): the delivery chain a client detects gaps from.
  std::uint64_t prev_seq = 0;
  /// True when the frame was served from retention, not the live stream.
  bool backfill = false;
  /// kBackfillRequest / kBackfillReply cursor list.
  std::vector<BackfillCursor> cursors{};
};

using FramePtr = std::shared_ptr<const Frame>;

/// Control-frame wire sizes (subscription management is rare; only data
/// frames matter to the timing model, but sizes keep the accounting honest).
constexpr std::int64_t kControlFrameBytes = 96;
constexpr std::int64_t kFrameHeaderBytes = 32;

/// Serialised size of one BackfillCursor (origin + seq + flags).
constexpr std::int64_t kBackfillCursorBytes = 16;

/// The messages a frame carries, in order: its batch when aggregated,
/// otherwise its one message; none for a control frame.
[[nodiscard]] inline std::span<const jms::MessagePtr> messages_of(
    const Frame& frame) {
  if (!frame.batch.empty()) return frame.batch;
  if (frame.message) return {&frame.message, 1};
  return {};
}

/// The span views the frame, so a temporary frame cannot lend one.
std::span<const jms::MessagePtr> messages_of(const Frame&&) = delete;

/// Wire bytes of the messages a frame carries.
[[nodiscard]] inline std::int64_t payload_bytes(const Frame& frame) {
  std::int64_t bytes = 0;
  for (const auto& message : messages_of(frame)) bytes += message->wire_size();
  return bytes;
}

[[nodiscard]] inline std::int64_t frame_wire_size(const Frame& frame) {
  // Replay-stamped frames pay for the extra header fields; replay-off
  // frames carry neither, keeping the classic wire sizes byte-identical.
  const std::int64_t replay =
      (frame.history_seq > 0 ? 16 : 0) +
      static_cast<std::int64_t>(frame.cursors.size()) * kBackfillCursorBytes;
  const std::int64_t header =
      messages_of(frame).empty() ? kControlFrameBytes : kFrameHeaderBytes;
  return header + payload_bytes(frame) + replay;
}

}  // namespace gridmon::narada
