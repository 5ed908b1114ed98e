#include "net/client_link.hpp"

namespace gridmon::net {

void ClientLink::enable_reconnect(ReconnectPolicy policy,
                                  std::string_view rng_stream) {
  recovers_ = true;
  policy_ = std::move(policy);
  // Deterministic jitter: a named kernel stream keyed by the client's
  // endpoint, independent of event-arrival order.
  rng_ = streams_.lan()
             .simulation()
             .rng_stream(rng_stream)
             .stream((static_cast<std::uint64_t>(local_.node) << 16) |
                     local_.port);
}

void ClientLink::connect(std::weak_ptr<void> owner, Hooks hooks,
                         ReadyHandler on_ready) {
  owner_ = std::move(owner);
  hooks_ = std::move(hooks);
  on_ready_ = std::move(on_ready);
  open();
}

void ClientLink::connect_without_stream(ReadyHandler on_ready) {
  on_ready_ = std::move(on_ready);
  ready_ = true;
  notify_ready(true);
}

bool ClientLink::established() {
  ready_ = true;
  const bool was_reconnect = reconnecting_;
  reconnecting_ = false;
  attempt_ = 0;
  notify_ready(true);
  return was_reconnect;
}

void ClientLink::notify_ready(bool ok) {
  auto callback = std::move(on_ready_);
  on_ready_ = nullptr;
  if (callback) callback(ok);
}

void ClientLink::open() {
  streams_.connect(local_, broker_, [owner = owner_, this](
                                        StreamConnectionPtr conn) {
    const auto alive = owner.lock();
    if (!alive) return;
    if (conn) {
      adopt(std::move(conn));
    } else {
      fail();
    }
  });
}

void ClientLink::adopt(StreamConnectionPtr conn) {
  conn_ = conn;
  conn->set_handler(0, hooks_.on_message, [owner = owner_, this] {
    if (const auto alive = owner.lock()) on_close();
  });
  if (hooks_.on_open) hooks_.on_open();
}

void ClientLink::on_close() {
  if (!ready_) {
    fail();
    return;
  }
  // Established link lost (broker crash, NIC failure). Without recovery
  // this is permanent: the no-recovery baseline.
  ready_ = false;
  conn_.reset();
  if (hooks_.on_lost) hooks_.on_lost();
  if (recovers_) schedule_reconnect();
}

void ClientLink::fail() {
  if (reconnecting_) {
    // The broker is still down (no listener), or went down again before
    // the handshake: back off and retry.
    schedule_reconnect();
    return;
  }
  // The first connection never completed its handshake: the broker
  // refused the client (its OOM or admission wall). That is final.
  refused_ = true;
  notify_ready(false);
}

void ClientLink::schedule_reconnect() {
  reconnecting_ = true;
  ++attempt_;
  ++reconnects_;
  if (!policy_.fallbacks.empty() &&
      attempt_ % ReconnectPolicy::kRehomeEvery == 0) {
    // Persistent failures: fail over to the next surviving broker instead
    // of waiting out the crashed one.
    broker_ = policy_.fallbacks[fallback_index_ % policy_.fallbacks.size()];
    ++fallback_index_;
    ++rehomes_;
  }
  const double delay =
      static_cast<double>(ReconnectPolicy::kBackoff.delay(attempt_)) *
      (1.0 + rng_.uniform(0.0, ReconnectPolicy::kJitter));
  streams_.lan().simulation().schedule_after(
      static_cast<SimTime>(delay), [owner = owner_, this] {
        if (const auto alive = owner.lock()) open();
      });
}

}  // namespace gridmon::net
