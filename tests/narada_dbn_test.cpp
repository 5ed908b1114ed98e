#include "narada/dbn.hpp"

#include <gtest/gtest.h>

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
