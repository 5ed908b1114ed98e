#include "net/stream.hpp"

#include <utility>

#include "obs/memprof.hpp"

namespace gridmon::net {
namespace {

/// TCP control segment payload size (SYN/ACK/FIN carry no app data).
constexpr std::int64_t kControlBytes = 0;

}  // namespace

StreamConnection::StreamConnection(Lan& lan, Endpoint client, Endpoint server)
    : lan_(lan) {
  sides_[0].local = client;
  sides_[1].local = server;
  // Model-memory accounting: one live connection's host-side state.
  obs::mem_add(obs::MemCategory::kNetConnections, kStreamConnectionBytes);
}

StreamConnection::~StreamConnection() {
  if (open_) {
    obs::mem_sub(obs::MemCategory::kNetConnections, kStreamConnectionBytes);
  }
}

void StreamConnection::set_handler(
    int side, std::function<void(const Datagram&)> on_message,
    std::function<void()> on_close) {
  sides_[side].on_message = std::move(on_message);
  sides_[side].on_close = std::move(on_close);
}

void StreamConnection::send(int from_side, std::int64_t bytes,
                            std::any payload) {
  if (!open_) return;
  // Failure injection: traffic to or from a downed node vanishes (a real
  // TCP stack would retransmit and eventually reset; the model simply
  // loses the message, which is what the application observes either way).
  if (lan_.node_down(sides_[from_side].local.node) ||
      lan_.node_down(sides_[1 - from_side].local.node) ||
      lan_.path_blocked(sides_[from_side].local.node,
                        sides_[1 - from_side].local.node)) {
    return;
  }
  const int to_side = 1 - from_side;
  ++messages_sent_[from_side];

  Datagram dg;
  dg.src = sides_[from_side].local;
  dg.dst = sides_[to_side].local;
  dg.bytes = bytes;
  dg.payload = std::move(payload);
  dg.sent_at = lan_.simulation().now();

  const SimTime arrival = lan_.frame_transit(dg.src.node, dg.dst.node, bytes);
  auto self = shared_from_this();
  lan_.simulation().schedule_at(
      arrival, [self, to_side, dg = std::move(dg)]() mutable {
        if (!self->open_) return;
        // Frames still in flight when the receiving NIC drops (or the switch
        // path is cut) are lost, exactly like datagrams.
        if (self->lan_.node_down(dg.dst.node) ||
            self->lan_.path_blocked(dg.src.node, dg.dst.node)) {
          return;
        }
        // Receiver's TCP stack acks the segment train; the ack consumes
        // reverse bandwidth but nothing waits for it.
        self->lan_.frame_transit(dg.dst.node, dg.src.node, kControlBytes);
        if (self->sides_[to_side].on_message) {
          self->sides_[to_side].on_message(dg);
        }
      });
}

void StreamConnection::close() {
  if (!open_) return;
  open_ = false;
  obs::mem_sub(obs::MemCategory::kNetConnections, kStreamConnectionBytes);
  // FIN/FIN-ACK exchange, then notify both sides.
  auto self = shared_from_this();
  const SimTime fin = lan_.frame_transit(sides_[0].local.node,
                                         sides_[1].local.node, kControlBytes);
  lan_.simulation().schedule_at(fin, [self] {
    for (auto& side : self->sides_) {
      if (side.on_close) side.on_close();
    }
  });
}

void StreamTransport::listen(Endpoint ep, AcceptHandler on_accept) {
  if (listeners_.contains(ep)) {
    throw std::logic_error("StreamTransport: already listening on " +
                           to_string(ep));
  }
  listeners_.emplace(ep, std::move(on_accept));
}

void StreamTransport::close_listener(Endpoint ep) { listeners_.erase(ep); }

void StreamTransport::connect(Endpoint local, Endpoint remote,
                              ConnectHandler on_connected) {
  // SYN → SYN-ACK → ACK handshake: three control-frame transits before the
  // connection is usable.
  auto& sim = lan_.simulation();
  const SimTime syn = lan_.frame_transit(local.node, remote.node, kControlBytes);
  sim.schedule_at(syn, [this, local, remote,
                        on_connected = std::move(on_connected)]() mutable {
    const auto listener = listeners_.find(remote);
    if (listener == listeners_.end() || lan_.node_down(remote.node) ||
        lan_.node_down(local.node) ||
        lan_.path_blocked(local.node, remote.node)) {
      // No listener, a dead NIC, or a cut path: the handshake fails. (A real
      // stack distinguishes RST from SYN timeout; the application sees a
      // failed connect either way, so both collapse onto the refusal path.)
      const SimTime rst =
          lan_.frame_transit(remote.node, local.node, kControlBytes);
      lan_.simulation().schedule_at(
          rst, [on_connected = std::move(on_connected)] { on_connected(nullptr); });
      return;
    }
    const SimTime syn_ack =
        lan_.frame_transit(remote.node, local.node, kControlBytes);
    AcceptHandler accept = listener->second;
    lan_.simulation().schedule_at(
        syn_ack, [this, local, remote, accept = std::move(accept),
                  on_connected = std::move(on_connected)]() mutable {
          // Final ACK consumes forward bandwidth; the client considers the
          // connection established immediately after sending it.
          lan_.frame_transit(local.node, remote.node, kControlBytes);
          auto conn = StreamConnectionPtr(
              new StreamConnection(lan_, local, remote));
          // Accept side first, then the initiator: initiator callbacks may
          // deliberately override handlers the acceptor installed (e.g.
          // broker peering over a connection the listener just accepted).
          accept(conn);
          on_connected(conn);
        });
  });
}

}  // namespace gridmon::net
