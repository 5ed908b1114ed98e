#include "narada/dbn.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cluster/costs.hpp"
#include "cluster/hydra.hpp"
#include "narada/client.hpp"

namespace gridmon::narada {
namespace {

struct DbnFixture : ::testing::Test {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 11}};

  std::shared_ptr<NaradaClient> make_client(int host, std::uint16_t port,
                                            net::Endpoint broker) {
    return NaradaClient::create(hydra.host(host), hydra.lan(), hydra.streams(),
                                broker, net::Endpoint{host, port},
                                TransportKind::kTcp);
  }
};

TEST_F(DbnFixture, FourBrokerMeshDeliversAcrossBrokers) {
  DbnConfig config;
  config.broker_hosts = {0, 1, 2, 3};
  Dbn dbn(hydra, config);
  dbn.start();
  ASSERT_EQ(dbn.broker_count(), 4);

  // Subscriber on broker 3, publisher on broker 0.
  auto sub = make_client(4, 9000, dbn.broker_endpoint(3));
  auto pub = make_client(5, 9001, dbn.broker_endpoint(0));
  int received = 0;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("t", "", jms::AcknowledgeMode::kAutoAcknowledge,
                   [&](const jms::MessagePtr&, SimTime) { ++received; });
  });
  pub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    for (int i = 0; i < 3; ++i) {
      pub->publish(jms::make_text_message("t", "x"));
    }
  });
  hydra.sim().run_until(units::seconds(10));
  EXPECT_EQ(received, 3);
  // Broadcast deficiency: each event forwarded to all 3 peers.
  EXPECT_EQ(dbn.total_stats().events_forwarded, 9u);
}

// After a partition heals, each broker asks its peers for what it missed.
// The origin of the partition-time messages is ahead of its peer's replica,
// so only the origin serves: the replica must not send the origin its own
// messages back.
TEST_F(DbnFixture, PeerBackfillServesOnlyWhatTheRequesterLacks) {
  DbnConfig config;
  config.broker_hosts = {0, 1};
  config.replay = true;
  Dbn dbn(hydra, config);
  dbn.start();

  auto sub = make_client(4, 9000, dbn.broker_endpoint(1));
  auto pub = make_client(5, 9001, dbn.broker_endpoint(0));
  int received = 0;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("t", "", jms::AcknowledgeMode::kAutoAcknowledge,
                   [&](const jms::MessagePtr&, SimTime) { ++received; });
  });
  auto publish = [&](int count) {
    for (int i = 0; i < count; ++i) {
      pub->publish(jms::make_text_message("t", "x"));
    }
  };
  pub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    publish(3);
  });
  hydra.sim().schedule_at(units::seconds(5), [&] {
    hydra.lan().set_path_blocked(0, 1, true);
    publish(2);  // broker 1's replica of broker 0 stops at 3
  });
  hydra.sim().schedule_at(units::seconds(8), [&] {
    hydra.lan().set_path_blocked(0, 1, false);
    dbn.request_peer_backfill();
  });
  hydra.sim().run_until(units::seconds(15));

  EXPECT_EQ(dbn.broker(0).stats().backfill_msgs, 2u);
  EXPECT_EQ(dbn.broker(1).stats().backfill_msgs, 0u);
  EXPECT_EQ(received, 5);
}

// Aggregated publishes on a replaying mesh: the origin stamps and retains
// each message of a batch, relays the batch as one forward frame, and the
// replica delivers each message once. Publisher on broker 0 (batches of
// 4), a subscriber on each broker.
struct BatchedReplayMesh {
  Dbn dbn;
  std::shared_ptr<NaradaClient> local_sub;
  std::shared_ptr<NaradaClient> remote_sub;
  std::shared_ptr<NaradaClient> pub;
  std::map<std::string, int> local_ids;
  std::map<std::string, int> remote_ids;

  explicit BatchedReplayMesh(DbnFixture& fixture)
      : dbn(fixture.hydra, DbnConfig{.broker_hosts = {0, 1}, .replay = true}) {
    dbn.start();
    local_sub = fixture.make_client(4, 9000, dbn.broker_endpoint(0));
    remote_sub = fixture.make_client(4, 9002, dbn.broker_endpoint(1));
    pub = fixture.make_client(5, 9001, dbn.broker_endpoint(0));
    pub->enable_aggregation(4);
    subscribe(local_sub, local_ids);
    subscribe(remote_sub, remote_ids);
    pub->connect([](bool ok) { ASSERT_TRUE(ok); });
  }

  static void subscribe(const std::shared_ptr<NaradaClient>& client,
                        std::map<std::string, int>& ids) {
    client->connect([client, &ids](bool ok) {
      ASSERT_TRUE(ok);
      client->subscribe("t", "", jms::AcknowledgeMode::kAutoAcknowledge,
                        [&ids](const jms::MessagePtr& message, SimTime) {
                          ++ids[message->message_id];
                        });
    });
  }

  /// One full batch: flushed at once, no aggregation timer.
  void publish_batch() {
    for (int i = 0; i < 4; ++i) pub->publish(jms::make_text_message("t", "x"));
  }
};

void expect_each_once(const std::map<std::string, int>& ids,
                      std::size_t messages) {
  EXPECT_EQ(ids.size(), messages);
  for (const auto& [id, count] : ids) EXPECT_EQ(count, 1) << id;
}

TEST_F(DbnFixture, BatchedPublishesRelayOnceOnAReplayingMesh) {
  BatchedReplayMesh mesh(*this);
  hydra.sim().schedule_at(units::seconds(1), [&] {
    mesh.publish_batch();
    mesh.publish_batch();
  });
  hydra.sim().run_until(units::seconds(10));

  expect_each_once(mesh.local_ids, 8);
  expect_each_once(mesh.remote_ids, 8);
  const BrokerStats& origin = mesh.dbn.broker(0).stats();
  const BrokerStats& replica = mesh.dbn.broker(1).stats();
  // Two wire frames of four messages each: frame counters count frames,
  // delivery counters count messages.
  EXPECT_EQ(origin.events_received, 2u);
  EXPECT_EQ(origin.events_forwarded, 2u);
  EXPECT_EQ(origin.events_from_peers, 0u);
  EXPECT_EQ(origin.events_delivered, 8u);
  EXPECT_EQ(replica.events_received, 0u);
  EXPECT_EQ(replica.events_forwarded, 0u);
  EXPECT_EQ(replica.events_from_peers, 2u);
  EXPECT_EQ(replica.events_delivered, 8u);
}

// A batch published while the mesh is partitioned reaches the replica
// only through peer backfill, one forward frame per retained message. Two
// repair sweeps before either is answered serve the batch twice; the
// replica retains and delivers it once.
TEST_F(DbnFixture, PeerBackfillReplaysABatchWithoutDuplicates) {
  BatchedReplayMesh mesh(*this);
  hydra.sim().schedule_at(units::seconds(1), [&] { mesh.publish_batch(); });
  hydra.sim().schedule_at(units::seconds(5), [&] {
    hydra.lan().set_path_blocked(0, 1, true);
    mesh.publish_batch();
  });
  hydra.sim().schedule_at(units::seconds(8), [&] {
    hydra.lan().set_path_blocked(0, 1, false);
    mesh.dbn.request_peer_backfill();
    mesh.dbn.request_peer_backfill();
  });
  hydra.sim().run_until(units::seconds(15));

  expect_each_once(mesh.local_ids, 8);
  expect_each_once(mesh.remote_ids, 8);
  const BrokerStats& origin = mesh.dbn.broker(0).stats();
  const BrokerStats& replica = mesh.dbn.broker(1).stats();
  // The live batch is one forward frame (the partition drops the second);
  // each sweep replays the missing batch as four single-message frames.
  EXPECT_EQ(origin.backfill_msgs, 8u);
  EXPECT_EQ(origin.events_received, 2u);
  EXPECT_EQ(origin.events_forwarded, 10u);
  EXPECT_EQ(origin.events_from_peers, 0u);
  EXPECT_EQ(origin.events_delivered, 8u);
  EXPECT_EQ(replica.backfill_msgs, 0u);
  EXPECT_EQ(replica.events_received, 0u);
  EXPECT_EQ(replica.events_forwarded, 0u);
  EXPECT_EQ(replica.events_from_peers, 9u);
  EXPECT_EQ(replica.events_delivered, 8u);
}

// A relay charges the local fan-out as a publish does, once per message:
// relaying a batch of eight costs the relaying broker eight fan-out
// charges per subscription on the topic. Topic "a" has one subscription
// on broker 1, topic "b" two, one of them with a selector that matches
// nothing (it counts toward the fan-out but takes no delivery); each
// topic gets one batch from broker 0, after two batches on a third topic
// that give both measured batches message ids of one length.
TEST_F(DbnFixture, RelayChargesTheFanOutPerMessage) {
  Dbn dbn(hydra, DbnConfig{.broker_hosts = {0, 1}});
  dbn.start();
  auto pub = make_client(5, 9001, dbn.broker_endpoint(0));
  pub->enable_aggregation(8);
  pub->connect([](bool ok) { ASSERT_TRUE(ok); });
  std::vector<std::shared_ptr<NaradaClient>> subs;
  const std::pair<const char*, const char*> kSubscriptions[] = {
      {"a", ""}, {"b", ""}, {"b", "x = 'never'"}};
  for (const auto& [topic, selector] : kSubscriptions) {
    auto sub = make_client(4, static_cast<std::uint16_t>(9100 + subs.size()),
                           dbn.broker_endpoint(1));
    sub->connect([sub, topic, selector](bool ok) {
      ASSERT_TRUE(ok);
      sub->subscribe(topic, selector, jms::AcknowledgeMode::kAutoAcknowledge,
                     [](const jms::MessagePtr&, SimTime) {});
    });
    subs.push_back(sub);
  }
  // Relay work on broker 1's host, GC pauses left out.
  cluster::Host& relay = hydra.host(1);
  auto work = [&] {
    return relay.cpu().busy_time() - relay.jvm().total_pause_time();
  };
  auto publish = [&](const char* topic, int count) {
    for (int i = 0; i < count; ++i) {
      pub->publish(jms::make_text_message(topic, "x"));
    }
  };
  SimTime before_a = 0;
  SimTime before_b = 0;
  SimTime after_b = 0;
  hydra.sim().schedule_at(units::seconds(1), [&] { publish("c", 16); });
  hydra.sim().schedule_at(units::seconds(3), [&] {
    before_a = work();
    publish("a", 8);
  });
  hydra.sim().schedule_at(units::seconds(5), [&] {
    before_b = work();
    publish("b", 8);
  });
  hydra.sim().schedule_at(units::seconds(7), [&] { after_b = work(); });
  hydra.sim().run_until(units::seconds(8));

  EXPECT_EQ(dbn.broker(1).stats().events_from_peers, 4u);
  EXPECT_EQ(dbn.broker(1).stats().events_delivered, 16u);
  EXPECT_EQ((after_b - before_b) - (before_b - before_a),
            8 * cluster::costs::kBrokerFanoutCost);
}

TEST_F(DbnFixture, SubscriptionAwareRoutingForwardsOnlyTowardInterest) {
  DbnConfig config;
  config.broker_hosts = {0, 1, 2, 3};
  config.subscription_aware_routing = true;
  Dbn dbn(hydra, config);
  dbn.start();

  auto sub = make_client(4, 9000, dbn.broker_endpoint(3));
  auto pub = make_client(5, 9001, dbn.broker_endpoint(0));
  int received = 0;
  sub->connect([&](bool) {
    sub->subscribe("t", "", jms::AcknowledgeMode::kAutoAcknowledge,
                   [&](const jms::MessagePtr&, SimTime) { ++received; });
  });
  // Let the subscription advertisement flood before publishing.
  hydra.sim().run_until(units::seconds(1));
  pub->connect([&](bool) {
    for (int i = 0; i < 3; ++i) {
      pub->publish(jms::make_text_message("t", "x"));
    }
  });
  hydra.sim().run_until(units::seconds(10));
  EXPECT_EQ(received, 3);
  // Only broker 3 subscribed, so each event is forwarded once, to it.
  EXPECT_EQ(dbn.total_stats().events_forwarded, 3u);
}

TEST_F(DbnFixture, DiscoveryNodeSplitsPublishersAndSubscribers) {
  DbnConfig config;
  config.broker_hosts = {0, 1, 2, 3};
  Dbn dbn(hydra, config);
  // 2 publishing brokers (0, 1) and 2 subscribing brokers (2, 3).
  EXPECT_EQ(dbn.assign_publisher_broker(), dbn.broker_endpoint(0));
  EXPECT_EQ(dbn.assign_publisher_broker(), dbn.broker_endpoint(1));
  EXPECT_EQ(dbn.assign_publisher_broker(), dbn.broker_endpoint(0));
  EXPECT_EQ(dbn.assign_subscriber_broker(), dbn.broker_endpoint(2));
  EXPECT_EQ(dbn.assign_subscriber_broker(), dbn.broker_endpoint(3));
  EXPECT_EQ(dbn.assign_subscriber_broker(), dbn.broker_endpoint(2));
}

TEST_F(DbnFixture, SingleBrokerServesBothRoles) {
  DbnConfig config;
  config.broker_hosts = {0};
  Dbn dbn(hydra, config);
  EXPECT_EQ(dbn.assign_publisher_broker(), dbn.broker_endpoint(0));
  EXPECT_EQ(dbn.assign_subscriber_broker(), dbn.broker_endpoint(0));
}

TEST_F(DbnFixture, EmptyHostListThrows) {
  DbnConfig config;
  config.broker_hosts = {};
  EXPECT_THROW(Dbn dbn(hydra, config), std::invalid_argument);
}

TEST_F(DbnFixture, BroadcastDeliversNowhereWithoutSubscribers) {
  DbnConfig config;
  config.broker_hosts = {0, 1};
  Dbn dbn(hydra, config);
  dbn.start();
  auto pub = make_client(4, 9001, dbn.broker_endpoint(0));
  pub->connect([&](bool) { pub->publish(jms::make_text_message("t", "x")); });
  hydra.sim().run_until(units::seconds(5));
  EXPECT_EQ(dbn.total_stats().events_forwarded, 1u);  // still broadcast
  EXPECT_EQ(dbn.total_stats().events_delivered, 0u);
}

}  // namespace
}  // namespace gridmon::narada
