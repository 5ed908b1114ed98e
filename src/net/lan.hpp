// Switched-LAN fabric.
//
// Models the paper's testbed network: N hosts on a store-and-forward switch,
// full duplex, 100 Mbps per port. Each host has an uplink (host→switch) and a
// downlink (switch→host) Link; a frame from A to B serialises on A's uplink,
// crosses the switch after a small forwarding latency, then serialises on
// B's downlink. Contention therefore appears exactly where it would on the
// real LAN: on a receiver's downlink when many senders converge on it.
//
// Two services are offered on top of raw frames:
//  - datagrams (UDP-like): unreliable, per-datagram loss probability;
//  - frame_transit: the timing primitive the reliable stream transport uses.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/address.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace gridmon::net {

/// Per-port line rate of the testbed switch.
inline constexpr double kLineRateBps = 100e6;
/// Effective fraction of line rate available to payload bytes. The paper
/// measured 7–8 MB/s on the 100 Mbps LAN (sftp), i.e. ~0.62 of raw.
inline constexpr double kLinkEfficiency = 0.62;
/// Propagation latency of each host↔switch link.
inline constexpr SimTime kPropagation = units::microseconds(30);
/// Store-and-forward latency of the switch.
inline constexpr SimTime kSwitchLatency = units::microseconds(20);

struct LanConfig {
  int node_count = 8;
  double datagram_loss = 0.0;  ///< per-datagram drop probability (UDP only)
};

class Lan {
 public:
  using DatagramHandler = std::function<void(const Datagram&)>;

  Lan(sim::Simulation& sim, LanConfig config);

  [[nodiscard]] int node_count() const { return static_cast<int>(uplinks_.size()); }
  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] const LanConfig& config() const { return config_; }

  /// Register the (exclusive) datagram handler for an endpoint.
  void bind(Endpoint ep, DatagramHandler handler);
  void unbind(Endpoint ep);
  [[nodiscard]] bool bound(Endpoint ep) const;

  /// UDP-like send: unreliable, unordered w.r.t. other senders, subject to
  /// the configured loss probability. Oversized datagrams are carried as a
  /// burst of fragments; loss of any fragment loses the datagram.
  void send_datagram(Endpoint src, Endpoint dst, std::int64_t bytes,
                     std::any payload);

  void set_datagram_loss(double p) { config_.datagram_loss = p; }

  /// Failure injection: take a node's NIC down (frames to and from it are
  /// dropped on the floor — including frames already in flight when the NIC
  /// drops) or bring it back. Established stream connections silently lose
  /// traffic while a peer is down — like a yanked cable. Idempotent:
  /// down→down / up→up are no-ops (see nic_transitions()).
  void set_node_down(NodeId node, bool down);
  [[nodiscard]] bool node_down(NodeId node) const;
  /// Actual NIC state changes (redundant set_node_down calls don't count).
  [[nodiscard]] std::uint64_t nic_transitions() const {
    return nic_transitions_;
  }

  /// Failure injection: block the (symmetric) switch path between two nodes;
  /// frames between them — including frames in flight — are dropped while
  /// blocked. Models cutting one inter-broker cable without touching either
  /// NIC.
  void set_path_blocked(NodeId a, NodeId b, bool blocked);
  [[nodiscard]] bool path_blocked(NodeId a, NodeId b) const;

  /// Timing primitive: when would a frame of `bytes` (payload, before frame
  /// overhead) entering the fabric *now* arrive at `dst`? Consumes link
  /// capacity. Local delivery (src == dst) costs only loopback latency.
  SimTime frame_transit(NodeId src, NodeId dst, std::int64_t bytes);

  /// Statistics.
  [[nodiscard]] std::uint64_t datagrams_sent() const { return datagrams_sent_; }
  [[nodiscard]] std::uint64_t datagrams_dropped() const { return datagrams_dropped_; }
  /// Datagrams launched but not yet delivered (or dropped in flight) —
  /// a queue-depth gauge for the observability Timeline.
  [[nodiscard]] std::uint64_t datagrams_in_flight() const {
    return datagrams_in_flight_;
  }
  [[nodiscard]] std::int64_t bytes_to_node(NodeId node) const;

 private:
  void check_node(NodeId node) const;
  [[nodiscard]] static std::uint64_t pair_key(NodeId a, NodeId b) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  }

  sim::Simulation& sim_;
  LanConfig config_;
  util::Rng loss_rng_;
  std::vector<Link> uplinks_;
  std::vector<Link> downlinks_;
  std::unordered_map<Endpoint, DatagramHandler, EndpointHash> handlers_;
  std::uint64_t next_datagram_id_ = 1;
  std::uint64_t datagrams_sent_ = 0;
  std::uint64_t datagrams_dropped_ = 0;
  std::uint64_t datagrams_in_flight_ = 0;
  std::vector<bool> node_down_;
  std::uint64_t nic_transitions_ = 0;
  std::unordered_set<std::uint64_t> blocked_paths_;  ///< min→max key
};

}  // namespace gridmon::net
