// Client-link behaviours not covered by the broker tests: UDP registration
// and delivery, pre-ready backlog queueing, refusal reporting and
// aggregation edge cases.
#include "narada/client.hpp"

#include <gtest/gtest.h>

#include "cluster/hydra.hpp"
#include "narada/dbn.hpp"

namespace gridmon::narada {
namespace {

struct ClientFixture : ::testing::Test {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 55}};

  std::unique_ptr<Dbn> start_broker(TransportKind transport) {
    DbnConfig config;
    config.broker_hosts = {0};
    config.transport = transport;
    auto dbn = std::make_unique<Dbn>(hydra, config);
    dbn->start();
    return dbn;
  }
};

TEST_F(ClientFixture, UdpSubscriberRegistersAndReceives) {
  auto dbn = start_broker(TransportKind::kUdp);
  auto sub = NaradaClient::create(hydra.host(1), hydra.lan(), hydra.streams(),
                                  dbn->broker_endpoint(0),
                                  net::Endpoint{1, 9000}, TransportKind::kUdp);
  auto pub = NaradaClient::create(hydra.host(2), hydra.lan(), hydra.streams(),
                                  dbn->broker_endpoint(0),
                                  net::Endpoint{2, 9001}, TransportKind::kUdp);
  int received = 0;
  bool sub_ready = false;
  sub->connect([&](bool ok) {
    sub_ready = ok;
    sub->subscribe("t", "", jms::AcknowledgeMode::kAutoAcknowledge,
                   [&](const jms::MessagePtr&, SimTime) { ++received; });
  });
  pub->connect([&](bool) {
    hydra.sim().schedule_after(units::seconds(1), [&] {
      pub->publish(jms::make_text_message("t", "x"));
    });
  });
  hydra.sim().run_until(units::seconds(10));
  EXPECT_TRUE(sub_ready);  // UDP clients are ready immediately
  EXPECT_EQ(received, 1);
  EXPECT_EQ(dbn->broker(0).stats().udp_acks_sent, 1u);
}

TEST_F(ClientFixture, PublishesBeforeReadyAreQueuedNotLost) {
  auto dbn = start_broker(TransportKind::kTcp);
  auto sub = NaradaClient::create(hydra.host(1), hydra.lan(), hydra.streams(),
                                  dbn->broker_endpoint(0),
                                  net::Endpoint{1, 9000}, TransportKind::kTcp);
  auto pub = NaradaClient::create(hydra.host(2), hydra.lan(), hydra.streams(),
                                  dbn->broker_endpoint(0),
                                  net::Endpoint{2, 9001}, TransportKind::kTcp);
  int received = 0;
  sub->connect([&](bool) {
    sub->subscribe("t", "", jms::AcknowledgeMode::kAutoAcknowledge,
                   [&](const jms::MessagePtr&, SimTime) { ++received; });
  });
  // Publish immediately, before the TCP handshake/welcome completed: the
  // frames must queue in the client backlog and flush once ready.
  pub->connect(nullptr);
  pub->publish(jms::make_text_message("t", "early-1"));
  pub->publish(jms::make_text_message("t", "early-2"));
  EXPECT_FALSE(pub->link().ready());
  hydra.sim().run_until(units::seconds(10));
  EXPECT_TRUE(pub->link().ready());
  EXPECT_EQ(received, 2);
}

TEST_F(ClientFixture, ConnectToNothingReportsRefusal) {
  auto client = NaradaClient::create(
      hydra.host(1), hydra.lan(), hydra.streams(),
      net::Endpoint{0, 12345},  // nobody listening
      net::Endpoint{1, 9000}, TransportKind::kTcp);
  bool ready = true;
  client->connect([&](bool ok) { ready = ok; });
  hydra.sim().run_until(units::seconds(5));
  EXPECT_FALSE(ready);
  EXPECT_TRUE(client->link().refused());
}

TEST_F(ClientFixture, AggregationDisabledBySizeOne) {
  auto dbn = start_broker(TransportKind::kTcp);
  auto pub = NaradaClient::create(hydra.host(2), hydra.lan(), hydra.streams(),
                                  dbn->broker_endpoint(0),
                                  net::Endpoint{2, 9001}, TransportKind::kTcp);
  pub->enable_aggregation(1);  // no-op
  pub->connect([&](bool) {
    pub->publish(jms::make_text_message("t", "x"));
  });
  hydra.sim().run_until(units::seconds(5));
  // One wire event per message when aggregation is off.
  EXPECT_EQ(dbn->broker(0).stats().events_received, 1u);
}

TEST_F(ClientFixture, SequentialMessageIdsPerClient) {
  auto dbn = start_broker(TransportKind::kTcp);
  auto sub = NaradaClient::create(hydra.host(1), hydra.lan(), hydra.streams(),
                                  dbn->broker_endpoint(0),
                                  net::Endpoint{1, 9000}, TransportKind::kTcp);
  std::vector<std::string> ids;
  sub->connect([&](bool) {
    sub->subscribe("t", "", jms::AcknowledgeMode::kAutoAcknowledge,
                   [&](const jms::MessagePtr& m, SimTime) {
                     ids.push_back(m->message_id);
                   });
  });
  auto pub = NaradaClient::create(hydra.host(2), hydra.lan(), hydra.streams(),
                                  dbn->broker_endpoint(0),
                                  net::Endpoint{2, 9001}, TransportKind::kTcp);
  pub->connect([&](bool) {
    pub->publish(jms::make_text_message("t", "a"));
    pub->publish(jms::make_text_message("t", "b"));
  });
  hydra.sim().run_until(units::seconds(5));
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "ID:2-9001-1");
  EXPECT_EQ(ids[1], "ID:2-9001-2");
}

}  // namespace
}  // namespace gridmon::narada
