// The MQTT broker model: QoS state machines, keep-alive expiry, and
// persistent-session resumption.
#include "mqtt/broker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/hydra.hpp"
#include "mqtt/client.hpp"

namespace gridmon::mqtt {
namespace {

/// A testbed with one broker endpoint; each test fixture owns one, and a
/// test that runs several inputs builds one per input.
struct MqttWorld {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 3}};
  net::Endpoint broker_ep{0, 1883};

  std::unique_ptr<MqttBroker> start_broker() {
    MqttBrokerConfig config;
    config.endpoint = broker_ep;
    auto broker = std::make_unique<MqttBroker>(hydra.host(0), hydra.lan(),
                                               hydra.streams(), config);
    broker->start();
    return broker;
  }

  std::shared_ptr<MqttClient> make_client(int host, std::uint16_t port,
                                          MqttClientOptions options) {
    return MqttClient::create(hydra.host(host), hydra.streams(), broker_ep,
                              net::Endpoint{host, port}, std::move(options));
  }
};

struct MqttFixture : ::testing::Test, MqttWorld {};

TEST_F(MqttFixture, Qos0PublishSubscribeRoundTrip) {
  auto broker = start_broker();
  auto sub = make_client(1, 9000, {.client_id = "sub"});
  auto pub = make_client(2, 9001, {.client_id = "pub"});

  std::vector<std::string> received;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("powergrid/#", 0,
                   [&](const PacketPtr& packet, SimTime) {
                     received.push_back(packet->message_id);
                   });
  });
  pub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    for (int i = 0; i < 5; ++i) {
      pub->publish("powergrid/feeder1/gen0", 128, /*qos=*/0,
                   "m" + std::to_string(i));
    }
  });
  hydra.sim().run_until(units::seconds(10));
  ASSERT_EQ(received.size(), 5u);
  EXPECT_EQ(received.front(), "m0");
  EXPECT_EQ(received.back(), "m4");
  EXPECT_EQ(broker->stats().publishes_received, 5u);
  EXPECT_EQ(broker->stats().publishes_delivered, 5u);
  EXPECT_EQ(broker->session_count(), 2);
  EXPECT_EQ(broker->subscription_count(), 1);
}

TEST_F(MqttFixture, Qos1RedeliversAcrossSubscriberNicFlap) {
  // At-least-once under loss: the subscriber's NIC goes down mid-stream
  // (in-flight frames to it vanish); every delivery sits in the broker's
  // in-flight window until PUBACKed, so the DUP retransmission sweep
  // redelivers the eaten ones once the NIC is back.
  auto broker = start_broker();
  auto sub = make_client(1, 9000, {.client_id = "sub"});
  auto pub = make_client(2, 9001, {.client_id = "pub"});

  std::vector<std::string> received;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("powergrid/#", 1,
                   [&](const PacketPtr& packet, SimTime) {
                     received.push_back(packet->message_id);
                   });
  });
  pub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    for (int i = 0; i < 10; ++i) {
      hydra.sim().schedule_at(
          units::seconds(2) + units::milliseconds(100) * i, [this, &pub, i] {
            pub->publish("powergrid/feeder1/gen0", 128, /*qos=*/1,
                         "m" + std::to_string(i));
          });
    }
  });
  // The flap covers publishes m3..m7; short enough that the broker's
  // keep-alive grace (45 s) never trips.
  hydra.sim().schedule_at(units::milliseconds(2250), [this] {
    hydra.lan().set_node_down(1, true);
  });
  hydra.sim().schedule_at(units::milliseconds(2850), [this] {
    hydra.lan().set_node_down(1, false);
  });
  hydra.sim().run_until(units::seconds(30));

  // Every message arrives at least once (duplicates allowed at QoS 1).
  EXPECT_GE(received.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    const std::string id = "m" + std::to_string(i);
    EXPECT_NE(std::find(received.begin(), received.end(), id),
              received.end())
        << "lost " << id;
  }
  EXPECT_GT(broker->stats().retransmissions, 0u);
}

TEST_F(MqttFixture, Qos2DeliversExactlyOnceUnderDuplicatePublish) {
  // Exactly-once under a lost PUBREC: the publisher's NIC drops right
  // after the PUBLISH leaves, so the broker's PUBREC is eaten and the
  // client's retransmission timer re-sends a DUP PUBLISH. The broker has
  // the packet id parked and must not ingest the duplicate.
  auto broker = start_broker();
  auto sub = make_client(1, 9000, {.client_id = "sub"});
  auto pub = make_client(2, 9001, {.client_id = "pub"});

  int received = 0;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("powergrid/#", 2,
                   [&](const PacketPtr&, SimTime) { ++received; });
  });
  pub->connect([&](bool ok) { ASSERT_TRUE(ok); });
  hydra.sim().schedule_at(units::seconds(2), [this, &pub] {
    // The flap is anchored off the exact send instant: the 156-byte
    // PUBLISH needs ~90 us to reach the broker, the 4-byte PUBREC ~70 us
    // to come back — dropping the NIC 120 us after the send lets the
    // PUBLISH through and eats the PUBREC.
    pub->publish("powergrid/feeder1/gen0", 128, /*qos=*/2,
                 "m0", [this](SimTime after) {
                   hydra.sim().schedule_at(
                       after + units::microseconds(120),
                       [this] { hydra.lan().set_node_down(2, true); });
                   hydra.sim().schedule_at(
                       after + units::seconds(1),
                       [this] { hydra.lan().set_node_down(2, false); });
                 });
  });
  hydra.sim().run_until(units::seconds(30));

  EXPECT_EQ(received, 1);
  EXPECT_GE(pub->retransmissions(), 1u);
  EXPECT_GE(broker->stats().qos2_duplicates_parked, 1u);
  EXPECT_EQ(broker->stats().publishes_delivered, 1u);
}

TEST_F(MqttFixture, KeepAliveExpiryDropsSilentSession) {
  // A client that goes silent past 1.5x its keep-alive is expired, and its
  // clean session is erased.
  auto broker = start_broker();
  auto pub = make_client(
      2, 9001, {.client_id = "pub", .keep_alive = units::seconds(2)});
  pub->connect([&](bool ok) { ASSERT_TRUE(ok); });
  // Yank the publisher's cable for good: pings stop and the broker expires
  // the session at ~3 s of silence.
  hydra.sim().schedule_at(units::seconds(2),
                          [this] { hydra.lan().set_node_down(2, true); });
  hydra.sim().run_until(units::seconds(30));

  EXPECT_EQ(broker->stats().sessions_expired, 1u);
  EXPECT_EQ(broker->session_count(), 0);
}

TEST_F(MqttFixture, PersistentSessionResumesWithoutResubscribe) {
  // A persistent (clean_session=false) subscriber that drops out keeps
  // its subscription and gets offline traffic queued; on reconnect the
  // CONNACK reports session_present, so no resubscribe happens and the
  // queue drains.
  auto broker = start_broker();
  auto sub = make_client(1, 9000,
                         {.client_id = "sub",
                          .clean_session = false,
                          .keep_alive = units::seconds(2)});
  sub->set_reconnect_policy({});
  auto pub = make_client(2, 9001, {.client_id = "pub"});

  std::vector<std::string> received;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("powergrid/#", 1,
                   [&](const PacketPtr& packet, SimTime) {
                     received.push_back(packet->message_id);
                   });
  });
  pub->connect([&](bool ok) { ASSERT_TRUE(ok); });
  for (int i = 0; i < 10; ++i) {
    hydra.sim().schedule_at(units::seconds(2) + units::seconds(1) * i,
                            [&pub, i] {
                              pub->publish("powergrid/feeder1/gen0", 128,
                                           /*qos=*/1, "m" + std::to_string(i));
                            });
  }
  // A 5 s outage: long enough for the broker to expire the connection
  // (grace 3 s), short enough that the reconnect lands mid-stream.
  hydra.sim().schedule_at(units::milliseconds(2500),
                          [this] { hydra.lan().set_node_down(1, true); });
  hydra.sim().schedule_at(units::milliseconds(7500),
                          [this] { hydra.lan().set_node_down(1, false); });
  hydra.sim().run_until(units::seconds(60));

  EXPECT_GE(sub->link().reconnects(), 1u);
  EXPECT_EQ(sub->resubscribes(), 0u);  // session held the subscription
  EXPECT_GE(broker->stats().sessions_resumed, 1u);
  for (int i = 0; i < 10; ++i) {
    const std::string id = "m" + std::to_string(i);
    EXPECT_NE(std::find(received.begin(), received.end(), id),
              received.end())
        << "lost " << id;
  }
}

TEST_F(MqttFixture, OfflineQueueBoundedByRetentionPolicy) {
  // The offline queue used to grow without bound while a persistent
  // session was parked. It is now a HistoryBuffer under the retention
  // windows: eviction counted in queue_dropped, and the resumed drain
  // counted as backfill.
  //
  // Subscriber NIC down from 2.5 s; the broker parks the session once the
  // keep-alive grace expires. Ten QoS 1 publishes land from t=8 s — all
  // while the session is parked — and, in the first input, an eleventh at
  // t=45 s. The session resumes at 46 s. By then the first ten are past
  // the raw window: only every 4th queued sequence (m3, m7) survives
  // demotion, whether or not a later publish pruned the queue.
  struct Input {
    bool late_publish;
    std::uint64_t backfill;
    std::vector<std::string> received;
  };
  const Input inputs[] = {{true, 3, {"m3", "m7", "m10"}},
                          {false, 2, {"m3", "m7"}}};
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.late_publish ? "with a publish at 45 s"
                                    : "without a later publish");
    MqttWorld world;
    auto broker = world.start_broker();
    auto sub = world.make_client(1, 9000,
                                 {.client_id = "sub",
                                  .clean_session = false,
                                  .keep_alive = units::seconds(2)});
    sub->set_reconnect_policy({});
    auto pub = world.make_client(2, 9001, {.client_id = "pub"});

    std::vector<std::string> received;
    sub->connect([&](bool ok) {
      ASSERT_TRUE(ok);
      sub->subscribe("powergrid/#", 1,
                     [&](const PacketPtr& packet, SimTime) {
                       received.push_back(packet->message_id);
                     });
    });
    pub->connect([&](bool ok) { ASSERT_TRUE(ok); });

    auto& sim = world.hydra.sim();
    sim.schedule_at(units::milliseconds(2500), [&world] {
      world.hydra.lan().set_node_down(1, true);
    });
    const int publishes = input.late_publish ? 11 : 10;
    for (int i = 0; i < publishes; ++i) {
      const SimTime at = i < 10 ? units::seconds(8) +
                                      units::milliseconds(500) * i
                                : units::seconds(45);
      sim.schedule_at(at, [&pub, i] {
        pub->publish("powergrid/feeder1/gen0", 128, /*qos=*/1,
                     "m" + std::to_string(i));
      });
    }
    sim.schedule_at(units::seconds(46), [&world] {
      world.hydra.lan().set_node_down(1, false);
    });
    sim.run_until(units::seconds(90));

    EXPECT_EQ(broker->stats().queue_dropped, 8u);
    EXPECT_EQ(broker->stats().backfill_msgs, input.backfill);
    // Exactly the retained entries arrive after resumption — the evicted
    // eight are honestly gone, not silently redelivered.
    EXPECT_EQ(received, input.received);
  }
}

TEST_F(MqttFixture, BrokerCrashLosesStateAndClientsRecover) {
  // crash() models a process kill: sessions, retained store and in-flight
  // windows are gone. A client with a reconnect policy comes back, finds
  // session_present=0 and resubscribes.
  auto broker = start_broker();
  auto sub = make_client(1, 9000,
                         {.client_id = "sub", .clean_session = false});
  sub->set_reconnect_policy({});

  int received = 0;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("powergrid/#", 1,
                   [&](const PacketPtr&, SimTime) { ++received; });
  });
  hydra.sim().schedule_at(units::seconds(5), [&broker] { broker->crash(); });
  hydra.sim().schedule_at(units::seconds(8), [&broker] { broker->restart(); });

  auto pub = make_client(2, 9001, {.client_id = "pub"});
  hydra.sim().schedule_at(units::seconds(15), [&pub] {
    pub->connect([&pub](bool ok) {
      ASSERT_TRUE(ok);
      pub->publish("powergrid/feeder1/gen0", 128, /*qos=*/1, "after-crash");
    });
  });
  hydra.sim().run_until(units::seconds(60));

  EXPECT_EQ(broker->stats().crashes, 1u);
  EXPECT_GE(sub->link().reconnects(), 1u);
  EXPECT_GE(sub->resubscribes(), 1u);  // broker came back empty
  EXPECT_EQ(received, 1);              // post-crash traffic flows again
}

TEST_F(MqttFixture, OverlappingFiltersDeliverOnceAtBestGrant) {
  // A session holding several filters that all match one topic gets the
  // publish exactly once, at the maximum matching grant. The old publish
  // path delivered at whichever filter the session walk hit first (here
  // the broad QoS 0 one, subscribed first).
  auto broker = start_broker();
  auto sub = make_client(1, 9000, {.client_id = "sub"});
  auto pub = make_client(2, 9001, {.client_id = "pub"});

  std::vector<int> delivered_qos;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("powergrid/#", 0, [](const PacketPtr&, SimTime) {});
    sub->subscribe("powergrid/feeder1/+", 1,
                   [&](const PacketPtr& packet, SimTime) {
                     delivered_qos.push_back(packet->qos);
                   });
  });
  pub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    hydra.sim().schedule_at(units::seconds(2), [&pub] {
      pub->publish("powergrid/feeder1/gen0", 128, /*qos=*/1, "m0");
    });
  });
  hydra.sim().run_until(units::seconds(10));

  EXPECT_EQ(broker->subscription_count(), 2);
  ASSERT_EQ(delivered_qos.size(), 1u);  // once, not once per filter
  EXPECT_EQ(delivered_qos.front(), 1);  // at the best grant, not the first
  EXPECT_EQ(broker->stats().publishes_delivered, 1u);
}

}  // namespace
}  // namespace gridmon::mqtt
