// Reliable, connection-oriented stream transport (TCP-like).
//
// Guarantees the properties the middleware relies on: connection setup via a
// handshake, reliable in-order message delivery per direction, and an
// acknowledgement frame per message that consumes reverse-path bandwidth.
// On the modelled (lossless for TCP) LAN no retransmission machinery is
// needed; loss is a property of the datagram service only. Ordering falls
// out of the FIFO queueing links: two messages from the same sender traverse
// the same uplink/downlink pair, so arrival times are monotone.
//
// Message boundaries are preserved (the real middlewares all run a framing
// layer over TCP; we model the framed messages directly).
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "net/lan.hpp"

namespace gridmon::net {

class StreamConnection;
using StreamConnectionPtr = std::shared_ptr<StreamConnection>;

/// Bytes the model-memory profile (obs/memprof) charges per open
/// StreamConnection (MemCategory::kNetConnections). A fixed number rather
/// than sizeof, so the memory figures do not follow host struct layout; it
/// is the x86-64 GCC 12 size of StreamConnection when the figure was
/// pinned.
constexpr std::int64_t kStreamConnectionBytes = 192;

/// One end of an established connection.
class StreamConnection : public std::enable_shared_from_this<StreamConnection> {
 public:
  /// Side 0 is the connecting (client) side; side 1 the accepting side.
  struct Side {
    Endpoint local;
    std::function<void(const Datagram&)> on_message;
    std::function<void()> on_close;
  };

  /// Send an application message from `from_side` (0 or 1) to the peer.
  /// Reliable and in-order. `bytes` is the serialised message size.
  void send(int from_side, std::int64_t bytes, std::any payload);

  /// Close both directions; peers' on_close handlers fire after the FIN
  /// exchange propagates.
  void close();

  void set_handler(int side, std::function<void(const Datagram&)> on_message,
                   std::function<void()> on_close = nullptr);

  [[nodiscard]] Endpoint endpoint(int side) const { return sides_[side].local; }
  [[nodiscard]] Endpoint peer_of(int side) const { return sides_[1 - side].local; }
  [[nodiscard]] bool open() const { return open_; }
  [[nodiscard]] std::uint64_t messages_sent(int side) const {
    return messages_sent_[side];
  }

  ~StreamConnection();

 private:
  friend class StreamTransport;
  StreamConnection(Lan& lan, Endpoint client, Endpoint server);

  Lan& lan_;
  Side sides_[2];
  bool open_ = true;
  std::uint64_t messages_sent_[2] = {0, 0};
};

class StreamTransport {
 public:
  using AcceptHandler = std::function<void(StreamConnectionPtr)>;
  /// Receives the connection on success, nullptr on refusal.
  using ConnectHandler = std::function<void(StreamConnectionPtr)>;

  explicit StreamTransport(Lan& lan) : lan_(lan) {}

  /// Start accepting connections at `ep`.
  void listen(Endpoint ep, AcceptHandler on_accept);
  void close_listener(Endpoint ep);

  /// Open a connection from `local` to `remote`. Completion (or refusal)
  /// is reported asynchronously after the handshake round trip.
  void connect(Endpoint local, Endpoint remote, ConnectHandler on_connected);

  [[nodiscard]] Lan& lan() { return lan_; }

 private:
  Lan& lan_;
  std::unordered_map<Endpoint, AcceptHandler, EndpointHash> listeners_;
};

}  // namespace gridmon::net
