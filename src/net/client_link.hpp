// Stream-client link: the connection lifecycle a middleware client shares.
//
// The Narada and MQTT clients (and the paper's clients they model) hold one
// stream to a broker and recover from its loss the same way: a close before
// the protocol handshake is a refusal, a close after it is a lost link, and
// a lost link is retried under capped exponential backoff until the broker
// answers again. ClientLink owns that lifecycle: the connection, the
// one-shot ready handler, the reconnect schedule and the
// ready/refused/reconnect/rehome bookkeeping. The owning client keeps only
// its protocol steps: what to send when a connection opens, when the
// handshake counts as done (`established`), what to reset when the link is
// lost, and what to restore after a reconnect.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "net/stream.hpp"
#include "util/rng.hpp"

namespace gridmon::net {

/// Capped exponential backoff: `initial`, doubling with each further
/// attempt until it reaches `cap`.
struct Backoff {
  SimTime initial;
  SimTime cap;

  /// Delay before attempt `attempt` (1 = the first).
  [[nodiscard]] constexpr SimTime delay(int attempt) const {
    SimTime d = initial;
    for (int i = 1; i < attempt && d < cap; ++i) d *= 2;
    return d < cap ? d : cap;
  }
};

/// Client recovery: when an established link drops, retry it after
/// kBackoff, each delay stretched by uniform[0, kJitter] of itself, with no
/// limit on the attempts. The jitter is deterministic, drawn from a named
/// kernel RNG stream keyed by the client's endpoint, so chaos runs stay a
/// pure function of (scenario, duration, seed).
struct ReconnectPolicy {
  static constexpr Backoff kBackoff{units::milliseconds(500),
                                    units::seconds(8)};
  static constexpr double kJitter = 0.2;
  /// Every kRehomeEvery-th attempt of an outage (the 2nd, 4th, ...) goes to
  /// the next broker of `fallbacks`, and later attempts stay there.
  static constexpr int kRehomeEvery = 2;
  /// Fail-over targets, taken round-robin. Empty keeps retrying the home
  /// broker (the classic single-broker recovery).
  std::vector<Endpoint> fallbacks;
};

class ClientLink {
 public:
  /// ok=false means the broker refused the connection.
  using ReadyHandler = std::function<void(bool ok)>;

  /// The owning client's protocol steps. `on_message` is installed on every
  /// connection the link adopts, so it must guard the client's lifetime
  /// itself; `on_open` and `on_lost` run only while the client is alive.
  struct Hooks {
    std::function<void(const Datagram&)> on_message = nullptr;
    /// A connection was adopted; the handshake has not completed yet.
    std::function<void()> on_open = nullptr;
    /// The established link dropped (before any reconnect is scheduled).
    std::function<void()> on_lost = nullptr;
  };

  ClientLink(StreamTransport& streams, Endpoint broker, Endpoint local)
      : streams_(streams), broker_(broker), local_(local) {}
  ClientLink(const ClientLink&) = delete;  // its callbacks hold `this`
  ClientLink& operator=(const ClientLink&) = delete;

  /// Recover lost links under `policy` (call before or after connect).
  /// Without it a lost link is permanent: the paper-faithful no-recovery
  /// baseline. `rng_stream` names the jitter stream.
  void enable_reconnect(ReconnectPolicy policy, std::string_view rng_stream);

  /// Open the stream. `owner` is the client holding this link: no link
  /// event runs once it is gone.
  void connect(std::weak_ptr<void> owner, Hooks hooks, ReadyHandler on_ready);
  /// A connectionless transport (Narada over UDP) is ready at once.
  void connect_without_stream(ReadyHandler on_ready);
  /// The protocol handshake completed: the link is ready, the backoff
  /// resets and the ready handler fires. Returns true when this ended a
  /// reconnect (the client then restores its broker-side state).
  bool established();

  /// Send on the open connection; a no-op while there is none.
  void send(std::int64_t bytes, std::any payload) {
    if (conn_ && conn_->open()) conn_->send(0, bytes, std::move(payload));
  }

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] bool refused() const { return refused_; }
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }
  [[nodiscard]] std::uint64_t rehomes() const { return rehomes_; }
  [[nodiscard]] Endpoint broker() const { return broker_; }
  [[nodiscard]] Endpoint local() const { return local_; }

 private:
  void open();
  void adopt(StreamConnectionPtr conn);
  void on_close();
  /// A connection attempt ended before the handshake.
  void fail();
  void schedule_reconnect();
  /// Invoke and clear the ready handler. Keeping it would hold whatever the
  /// caller captured (typically its own shared_ptr to the client) for the
  /// client's whole lifetime: a reference cycle.
  void notify_ready(bool ok);

  StreamTransport& streams_;
  Endpoint broker_;
  Endpoint local_;
  std::weak_ptr<void> owner_;
  Hooks hooks_;
  ReadyHandler on_ready_;
  StreamConnectionPtr conn_;
  bool ready_ = false;
  bool refused_ = false;

  bool recovers_ = false;
  ReconnectPolicy policy_;
  util::Rng rng_;
  int attempt_ = 0;  ///< reconnect attempts of this outage so far
  bool reconnecting_ = false;
  std::size_t fallback_index_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t rehomes_ = 0;
};

}  // namespace gridmon::net
