#include "net/lan.hpp"

#include <gtest/gtest.h>

namespace gridmon::net {
namespace {

LanConfig test_config(int nodes = 4) {
  LanConfig config;
  config.node_count = nodes;
  return config;
}

TEST(Lan, RejectsInvalidNodeCount) {
  sim::Simulation sim;
  LanConfig config;
  config.node_count = 0;
  EXPECT_THROW(Lan(sim, config), std::invalid_argument);
}

TEST(Lan, BindIsExclusive) {
  sim::Simulation sim;
  Lan lan(sim, test_config());
  const Endpoint ep{0, 80};
  lan.bind(ep, [](const Datagram&) {});
  EXPECT_TRUE(lan.bound(ep));
  EXPECT_THROW(lan.bind(ep, [](const Datagram&) {}), std::logic_error);
  lan.unbind(ep);
  EXPECT_FALSE(lan.bound(ep));
  lan.bind(ep, [](const Datagram&) {});  // rebindable after unbind
}

TEST(Lan, DatagramDelivery) {
  sim::Simulation sim;
  Lan lan(sim, test_config());
  int received = 0;
  SimTime arrival = 0;
  lan.bind(Endpoint{1, 9000}, [&](const Datagram& dg) {
    ++received;
    arrival = sim.now();
    EXPECT_EQ(dg.src, (Endpoint{0, 100}));
    EXPECT_EQ(dg.bytes, 500);
    EXPECT_EQ(std::any_cast<int>(dg.payload), 7);
  });
  lan.send_datagram(Endpoint{0, 100}, Endpoint{1, 9000}, 500, 7);
  sim.run();
  EXPECT_EQ(received, 1);
  // Wire time: (500+58) bytes at 62 Mbps effective + 2x30us prop + switch.
  EXPECT_GT(arrival, units::microseconds(60));
  EXPECT_LT(arrival, units::milliseconds(1));
}

TEST(Lan, DatagramToUnboundPortIsDropped) {
  sim::Simulation sim;
  Lan lan(sim, test_config());
  lan.send_datagram(Endpoint{0, 1}, Endpoint{1, 2}, 100, std::any{});
  sim.run();  // must not crash
  EXPECT_EQ(lan.datagrams_sent(), 1u);
}

TEST(Lan, InvalidNodeThrows) {
  sim::Simulation sim;
  Lan lan(sim, test_config(2));
  EXPECT_THROW(lan.send_datagram(Endpoint{0, 1}, Endpoint{5, 2}, 10, {}),
               std::out_of_range);
  EXPECT_THROW(lan.frame_transit(-1, 0, 10), std::out_of_range);
  EXPECT_THROW(lan.bind(Endpoint{9, 1}, [](const Datagram&) {}),
               std::out_of_range);
}

TEST(Lan, LoopbackIsFast) {
  sim::Simulation sim;
  Lan lan(sim, test_config());
  const SimTime arrival = lan.frame_transit(2, 2, 10000);
  EXPECT_LT(arrival, units::microseconds(50));
}

TEST(Lan, FrameTransitIsMonotonePerPath) {
  sim::Simulation sim;
  Lan lan(sim, test_config());
  SimTime previous = 0;
  for (int i = 0; i < 20; ++i) {
    const SimTime arrival = lan.frame_transit(0, 1, 1000);
    EXPECT_GT(arrival, previous);
    previous = arrival;
  }
}

TEST(Lan, LargePayloadsFragmentButArrive) {
  sim::Simulation sim;
  Lan lan(sim, test_config());
  const SimTime small = lan.frame_transit(0, 1, 100);
  // A 100 KiB transfer takes much longer than a single frame.
  const SimTime big = lan.frame_transit(2, 3, 100 * 1024);
  EXPECT_GT(big, small);
  EXPECT_GT(big, units::milliseconds(10));  // ~13 ms at 7.75 MB/s
  EXPECT_LT(big, units::milliseconds(30));
}

TEST(Lan, ReceiverDownlinkIsTheConvergencePoint) {
  sim::Simulation sim;
  Lan lan(sim, test_config());
  // Two senders to the same receiver: second arrival is pushed out by the
  // receiver's downlink serialisation.
  const SimTime a = lan.frame_transit(0, 3, 1400);
  const SimTime b = lan.frame_transit(1, 3, 1400);
  EXPECT_GT(b, a);
  // Two senders to two *different* receivers see no such contention.
  sim::Simulation sim2(2);
  Lan lan2(sim2, test_config());
  const SimTime c = lan2.frame_transit(0, 2, 1400);
  const SimTime d = lan2.frame_transit(1, 3, 1400);
  EXPECT_EQ(c, d);
}

TEST(Lan, LossDropsApproximatelyTheConfiguredFraction) {
  sim::Simulation sim;
  LanConfig config = test_config();
  config.datagram_loss = 0.1;
  Lan lan(sim, config);
  int received = 0;
  lan.bind(Endpoint{1, 1}, [&](const Datagram&) { ++received; });
  const int sent = 20000;
  for (int i = 0; i < sent; ++i) {
    lan.send_datagram(Endpoint{0, 1}, Endpoint{1, 1}, 100, std::any{});
  }
  sim.run();
  EXPECT_EQ(lan.datagrams_sent(), static_cast<std::uint64_t>(sent));
  EXPECT_NEAR(static_cast<double>(lan.datagrams_dropped()) / sent, 0.1, 0.01);
  EXPECT_EQ(static_cast<std::uint64_t>(received) + lan.datagrams_dropped(),
            static_cast<std::uint64_t>(sent));
}

TEST(Lan, ZeroLossDeliversEverything) {
  sim::Simulation sim;
  Lan lan(sim, test_config());
  int received = 0;
  lan.bind(Endpoint{1, 1}, [&](const Datagram&) { ++received; });
  for (int i = 0; i < 1000; ++i) {
    lan.send_datagram(Endpoint{0, 1}, Endpoint{1, 1}, 100, std::any{});
  }
  sim.run();
  EXPECT_EQ(received, 1000);
  EXPECT_EQ(lan.datagrams_dropped(), 0u);
}

TEST(Lan, BytesToNodeAccounting) {
  sim::Simulation sim;
  Lan lan(sim, test_config());
  lan.bind(Endpoint{1, 1}, [](const Datagram&) {});
  lan.send_datagram(Endpoint{0, 1}, Endpoint{1, 1}, 1000, std::any{});
  sim.run();
  EXPECT_GE(lan.bytes_to_node(1), 1000);
  EXPECT_EQ(lan.bytes_to_node(2), 0);
}

TEST(Lan, NodeDownDropsInFlightFrames) {
  sim::Simulation sim;
  Lan lan(sim, test_config());
  int received = 0;
  lan.bind(Endpoint{1, 1}, [&](const Datagram&) { ++received; });
  lan.send_datagram(Endpoint{0, 1}, Endpoint{1, 1}, 500, std::any{});
  // The frame is in flight (transit takes ~100 us); yank the cable first.
  sim.schedule_at(units::microseconds(5), [&] { lan.set_node_down(1, true); });
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(lan.datagrams_dropped(), 1u);
}

TEST(Lan, NodeDownBeforeFirstFrameDropsAtSource) {
  sim::Simulation sim;
  Lan lan(sim, test_config());
  int received = 0;
  lan.bind(Endpoint{1, 1}, [&](const Datagram&) { ++received; });
  lan.set_node_down(1, true);
  lan.send_datagram(Endpoint{0, 1}, Endpoint{1, 1}, 100, std::any{});
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(lan.datagrams_dropped(), 1u);
  // Frames *from* a downed node are also dropped.
  lan.set_node_down(1, false);
  lan.set_node_down(0, true);
  lan.send_datagram(Endpoint{0, 1}, Endpoint{1, 1}, 100, std::any{});
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(lan.datagrams_dropped(), 2u);
}

TEST(Lan, SetNodeDownIsIdempotent) {
  sim::Simulation sim;
  Lan lan(sim, test_config());
  EXPECT_EQ(lan.nic_transitions(), 0u);
  lan.set_node_down(2, false);  // up -> up: no-op
  EXPECT_EQ(lan.nic_transitions(), 0u);
  lan.set_node_down(2, true);
  lan.set_node_down(2, true);  // down -> down: no-op
  EXPECT_TRUE(lan.node_down(2));
  EXPECT_EQ(lan.nic_transitions(), 1u);
  lan.set_node_down(2, false);
  lan.set_node_down(2, false);
  EXPECT_FALSE(lan.node_down(2));
  EXPECT_EQ(lan.nic_transitions(), 2u);
}

TEST(Lan, RecoveredNodeDeliversAgain) {
  sim::Simulation sim;
  Lan lan(sim, test_config());
  int received = 0;
  lan.bind(Endpoint{1, 1}, [&](const Datagram&) { ++received; });
  lan.set_node_down(1, true);
  lan.send_datagram(Endpoint{0, 1}, Endpoint{1, 1}, 100, std::any{});
  sim.run();
  lan.set_node_down(1, false);
  lan.send_datagram(Endpoint{0, 1}, Endpoint{1, 1}, 100, std::any{});
  sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Lan, BlockedPathIsSymmetricAndSelective) {
  sim::Simulation sim;
  Lan lan(sim, test_config());
  int received = 0;
  lan.bind(Endpoint{1, 1}, [&](const Datagram&) { ++received; });
  lan.bind(Endpoint{3, 1}, [&](const Datagram&) { ++received; });
  lan.set_path_blocked(0, 1, true);
  EXPECT_TRUE(lan.path_blocked(1, 0));  // symmetric
  lan.send_datagram(Endpoint{0, 1}, Endpoint{1, 1}, 100, std::any{});
  lan.send_datagram(Endpoint{0, 1}, Endpoint{3, 1}, 100, std::any{});
  sim.run();
  EXPECT_EQ(received, 1);  // only the unblocked path delivered
  lan.set_path_blocked(0, 1, false);
  lan.send_datagram(Endpoint{0, 1}, Endpoint{1, 1}, 100, std::any{});
  sim.run();
  EXPECT_EQ(received, 2);
}

TEST(Lan, DatagramIdsAreUnique) {
  sim::Simulation sim;
  Lan lan(sim, test_config());
  std::set<std::uint64_t> ids;
  lan.bind(Endpoint{1, 1},
           [&](const Datagram& dg) { ids.insert(dg.id); });
  for (int i = 0; i < 50; ++i) {
    lan.send_datagram(Endpoint{0, 1}, Endpoint{1, 1}, 10, std::any{});
  }
  sim.run();
  EXPECT_EQ(ids.size(), 50u);
}

}  // namespace
}  // namespace gridmon::net
