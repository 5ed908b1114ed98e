#include "net/lan.hpp"

#include <stdexcept>
#include <utility>

namespace gridmon::net {

Lan::Lan(sim::Simulation& sim, LanConfig config)
    : sim_(sim),
      config_(config),
      loss_rng_(sim.rng_stream("lan.loss")) {
  if (config_.node_count <= 0) {
    throw std::invalid_argument("Lan: node_count must be positive");
  }
  node_down_.assign(static_cast<std::size_t>(config_.node_count), false);
  uplinks_.reserve(static_cast<std::size_t>(config_.node_count));
  downlinks_.reserve(static_cast<std::size_t>(config_.node_count));
  for (int i = 0; i < config_.node_count; ++i) {
    uplinks_.emplace_back(kLineRateBps, kPropagation, kLinkEfficiency);
    downlinks_.emplace_back(kLineRateBps, kPropagation, kLinkEfficiency);
  }
}

void Lan::check_node(NodeId node) const {
  if (node < 0 || node >= node_count()) {
    throw std::out_of_range("Lan: invalid node id " + std::to_string(node));
  }
}

void Lan::bind(Endpoint ep, DatagramHandler handler) {
  check_node(ep.node);
  if (handlers_.contains(ep)) {
    throw std::logic_error("Lan: endpoint already bound: " + to_string(ep));
  }
  handlers_.emplace(ep, std::move(handler));
}

void Lan::unbind(Endpoint ep) { handlers_.erase(ep); }

bool Lan::bound(Endpoint ep) const { return handlers_.contains(ep); }

void Lan::set_node_down(NodeId node, bool down) {
  check_node(node);
  if (node_down_[static_cast<std::size_t>(node)] == down) return;
  node_down_[static_cast<std::size_t>(node)] = down;
  ++nic_transitions_;
}

void Lan::set_path_blocked(NodeId a, NodeId b, bool blocked) {
  check_node(a);
  check_node(b);
  const std::uint64_t key = a < b ? pair_key(a, b) : pair_key(b, a);
  if (blocked) {
    blocked_paths_.insert(key);
  } else {
    blocked_paths_.erase(key);
  }
}

bool Lan::path_blocked(NodeId a, NodeId b) const {
  if (blocked_paths_.empty()) return false;
  const std::uint64_t key = a < b ? pair_key(a, b) : pair_key(b, a);
  return blocked_paths_.contains(key);
}

bool Lan::node_down(NodeId node) const {
  check_node(node);
  return node_down_[static_cast<std::size_t>(node)];
}

SimTime Lan::frame_transit(NodeId src, NodeId dst, std::int64_t bytes) {
  check_node(src);
  check_node(dst);
  const SimTime now = sim_.now();
  if (src == dst) {
    // Loopback: no wire, just a tiny kernel round trip.
    return now + units::microseconds(15);
  }
  std::int64_t remaining = bytes;
  SimTime arrival = now;
  // Carry the payload as one or more MTU-sized frames, each store-and-
  // forwarded through the switch. Fragments enter the uplink back to back
  // (they pipeline through the switch); the last fragment's downlink
  // arrival is the message arrival.
  do {
    const std::int64_t chunk =
        remaining > kMaxSegmentBytes ? kMaxSegmentBytes : remaining;
    const std::int64_t wire = chunk + kFrameOverheadBytes;
    const SimTime at_switch =
        uplinks_[static_cast<std::size_t>(src)].transmit(now, wire);
    arrival = downlinks_[static_cast<std::size_t>(dst)].transmit(
        at_switch + kSwitchLatency, wire);
    remaining -= chunk;
  } while (remaining > 0);
  return arrival;
}

void Lan::send_datagram(Endpoint src, Endpoint dst, std::int64_t bytes,
                        std::any payload) {
  check_node(src.node);
  check_node(dst.node);
  ++datagrams_sent_;
  if (node_down_[static_cast<std::size_t>(src.node)] ||
      node_down_[static_cast<std::size_t>(dst.node)] ||
      path_blocked(src.node, dst.node)) {
    ++datagrams_dropped_;
    return;
  }

  // Loss applies per wire fragment; a datagram survives only if all of its
  // fragments do.
  const double loss = config_.datagram_loss;
  const auto fragments =
      static_cast<int>((bytes + kMaxSegmentBytes - 1) / kMaxSegmentBytes);
  if (loss > 0.0) {
    for (int f = 0; f < (fragments > 0 ? fragments : 1); ++f) {
      if (loss_rng_.chance(loss)) {
        ++datagrams_dropped_;
        return;
      }
    }
  }

  Datagram dg;
  dg.src = src;
  dg.dst = dst;
  dg.bytes = bytes;
  dg.id = next_datagram_id_++;
  dg.payload = std::move(payload);
  dg.sent_at = sim_.now();

  const SimTime arrival = frame_transit(src.node, dst.node, bytes);
  ++datagrams_in_flight_;
  sim_.schedule_at(arrival, [this, dg = std::move(dg)]() mutable {
    --datagrams_in_flight_;
    // In-flight frames die with the receiving NIC or a cut path: a datagram
    // launched before the fault still never arrives.
    if (node_down_[static_cast<std::size_t>(dg.dst.node)] ||
        path_blocked(dg.src.node, dg.dst.node)) {
      ++datagrams_dropped_;
      return;
    }
    const auto it = handlers_.find(dg.dst);
    if (it != handlers_.end()) it->second(dg);
    // Datagrams to unbound ports are silently dropped, like real UDP.
  });
}

std::int64_t Lan::bytes_to_node(NodeId node) const {
  check_node(node);
  return downlinks_[static_cast<std::size_t>(node)].bytes_carried();
}

}  // namespace gridmon::net
