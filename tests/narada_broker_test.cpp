#include "narada/broker.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/hydra.hpp"
#include "util/stats.hpp"
#include "narada/client.hpp"
#include "narada/dbn.hpp"

namespace gridmon::narada {
namespace {

struct BrokerFixture : ::testing::Test {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 3}};

  std::unique_ptr<Dbn> start_broker(TransportKind transport = TransportKind::kTcp) {
    DbnConfig config;
    config.broker_hosts = {0};
    config.transport = transport;
    auto dbn = std::make_unique<Dbn>(hydra, config);
    dbn->start();
    return dbn;
  }

  std::shared_ptr<NaradaClient> make_client(int host, std::uint16_t port,
                                            net::Endpoint broker,
                                            TransportKind transport =
                                                TransportKind::kTcp) {
    return NaradaClient::create(hydra.host(host), hydra.lan(), hydra.streams(),
                                broker, net::Endpoint{host, port}, transport);
  }
};

TEST_F(BrokerFixture, PublishSubscribeRoundTrip) {
  auto dbn = start_broker();
  auto sub = make_client(1, 9000, dbn->broker_endpoint(0));
  auto pub = make_client(2, 9001, dbn->broker_endpoint(0));

  std::vector<std::string> received;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("topic", "", jms::AcknowledgeMode::kAutoAcknowledge,
                   [&](const jms::MessagePtr& msg, SimTime) {
                     received.push_back(msg->message_id);
                   });
  });
  pub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    for (int i = 0; i < 5; ++i) {
      pub->publish(jms::make_text_message("topic", "m" + std::to_string(i)));
    }
  });
  hydra.sim().run_until(units::seconds(10));
  ASSERT_EQ(received.size(), 5u);
  // In-order delivery with provider-stamped ids.
  EXPECT_EQ(received.front(), "ID:2-9001-1");
  EXPECT_EQ(received.back(), "ID:2-9001-5");
  EXPECT_EQ(pub->published(), 5u);
  EXPECT_EQ(sub->received(), 5u);
  EXPECT_EQ(dbn->broker(0).stats().events_received, 5u);
  EXPECT_EQ(dbn->broker(0).stats().events_delivered, 5u);
}

TEST_F(BrokerFixture, SelectorFiltersAtTheBroker) {
  auto dbn = start_broker();
  auto sub = make_client(1, 9000, dbn->broker_endpoint(0));
  auto pub = make_client(2, 9001, dbn->broker_endpoint(0));
  int received = 0;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("t", "id >= 5 AND id < 8",
                   jms::AcknowledgeMode::kAutoAcknowledge,
                   [&](const jms::MessagePtr& msg, SimTime) {
                     const auto id = std::get<std::int32_t>(msg->property("id"));
                     EXPECT_GE(id, 5);
                     EXPECT_LT(id, 8);
                     ++received;
                   });
  });
  pub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    for (int i = 0; i < 10; ++i) {
      jms::Message msg = jms::make_text_message("t", "x");
      msg.set_property("id", static_cast<std::int32_t>(i));
      pub->publish(std::move(msg));
    }
  });
  hydra.sim().run_until(units::seconds(10));
  EXPECT_EQ(received, 3);
}

TEST_F(BrokerFixture, TopicsIsolateSubscribers) {
  auto dbn = start_broker();
  auto sub_a = make_client(1, 9000, dbn->broker_endpoint(0));
  auto sub_b = make_client(1, 9002, dbn->broker_endpoint(0));
  auto pub = make_client(2, 9001, dbn->broker_endpoint(0));
  int got_a = 0;
  int got_b = 0;
  sub_a->connect([&](bool) {
    sub_a->subscribe("alpha", "", jms::AcknowledgeMode::kAutoAcknowledge,
                     [&](const jms::MessagePtr&, SimTime) { ++got_a; });
  });
  sub_b->connect([&](bool) {
    sub_b->subscribe("beta", "", jms::AcknowledgeMode::kAutoAcknowledge,
                     [&](const jms::MessagePtr&, SimTime) { ++got_b; });
  });
  pub->connect([&](bool) {
    pub->publish(jms::make_text_message("alpha", "1"));
    pub->publish(jms::make_text_message("alpha", "2"));
    pub->publish(jms::make_text_message("beta", "3"));
  });
  hydra.sim().run_until(units::seconds(10));
  EXPECT_EQ(got_a, 2);
  EXPECT_EQ(got_b, 1);
}

TEST_F(BrokerFixture, FanoutToMultipleSubscribers) {
  auto dbn = start_broker();
  std::vector<std::shared_ptr<NaradaClient>> subs;
  int total = 0;
  for (int i = 0; i < 4; ++i) {
    auto sub = make_client(1, static_cast<std::uint16_t>(9100 + i),
                           dbn->broker_endpoint(0));
    sub->connect([&, sub](bool) {
      sub->subscribe("t", "", jms::AcknowledgeMode::kAutoAcknowledge,
                     [&](const jms::MessagePtr&, SimTime) { ++total; });
    });
    subs.push_back(std::move(sub));
  }
  auto pub = make_client(2, 9001, dbn->broker_endpoint(0));
  pub->connect([&](bool) { pub->publish(jms::make_text_message("t", "x")); });
  hydra.sim().run_until(units::seconds(10));
  EXPECT_EQ(total, 4);
  EXPECT_EQ(dbn->broker(0).stats().events_delivered, 4u);
}

TEST_F(BrokerFixture, RefusesConnectionsWhenOutOfMemory) {
  // Shrink the broker host's memory so the wall arrives quickly.
  cluster::HydraConfig config;
  config.seed = 4;
  config.host.memory_budget = 64 * units::MiB;
  cluster::Hydra small(config);
  DbnConfig dbn_config;
  dbn_config.broker_hosts = {0};
  Dbn dbn(small, dbn_config);
  dbn.start();

  int accepted = 0;
  int refused = 0;
  std::vector<std::shared_ptr<NaradaClient>> clients;
  for (int i = 0; i < 120; ++i) {
    auto client = NaradaClient::create(
        small.host(1), small.lan(), small.streams(), dbn.broker_endpoint(0),
        net::Endpoint{1, static_cast<std::uint16_t>(10000 + i)},
        TransportKind::kTcp);
    client->connect([&](bool ok) { ok ? ++accepted : ++refused; });
    clients.push_back(std::move(client));
  }
  small.sim().run_until(units::seconds(30));
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
  EXPECT_EQ(accepted + refused, 120);
  EXPECT_EQ(dbn.broker(0).stats().connections_refused,
            static_cast<std::uint64_t>(refused));
  // Refused clients report it.
  int flagged = 0;
  for (const auto& client : clients) {
    if (client->link().refused()) ++flagged;
  }
  EXPECT_EQ(flagged, refused);
}

TEST_F(BrokerFixture, UdpDeliversThroughAckCycleSlowerThanTcp) {
  auto run_rtt = [&](TransportKind transport) {
    cluster::Hydra fresh(cluster::HydraConfig{.seed = 9});
    DbnConfig config;
    config.broker_hosts = {0};
    config.transport = transport;
    Dbn dbn(fresh, config);
    dbn.start();
    auto sub = NaradaClient::create(fresh.host(1), fresh.lan(),
                                    fresh.streams(), dbn.broker_endpoint(0),
                                    net::Endpoint{1, 9000}, transport);
    auto pub = NaradaClient::create(fresh.host(2), fresh.lan(),
                                    fresh.streams(), dbn.broker_endpoint(0),
                                    net::Endpoint{2, 9001}, transport);
    util::OnlineStats rtt;
    sub->connect([&](bool) {
      sub->subscribe("t", "", jms::AcknowledgeMode::kAutoAcknowledge,
                     [&](const jms::MessagePtr& msg, SimTime) {
                       rtt.add(units::to_millis(fresh.sim().now() -
                                                msg->timestamp));
                     });
    });
    pub->connect([&](bool) {
      for (int i = 0; i < 50; ++i) {
        fresh.sim().schedule_after(units::milliseconds(100 * i), [&pub] {
          pub->publish(jms::make_text_message("t", "x"));
        });
      }
    });
    fresh.sim().run_until(units::seconds(30));
    EXPECT_EQ(rtt.count(), 50u);
    return rtt.mean();
  };
  const double tcp = run_rtt(TransportKind::kTcp);
  const double udp = run_rtt(TransportKind::kUdp);
  const double nio = run_rtt(TransportKind::kNio);
  EXPECT_GT(udp, 3.0 * tcp);  // the paper's surprise: UDP ≈ 4x TCP
  EXPECT_GT(nio, tcp);        // selector wakeup granularity
  EXPECT_LT(nio, udp);
}

TEST_F(BrokerFixture, ClientAckModeAddsLatency) {
  auto run_rtt = [&](jms::AcknowledgeMode ack) {
    cluster::Hydra fresh(cluster::HydraConfig{.seed = 10});
    DbnConfig config;
    config.broker_hosts = {0};
    Dbn dbn(fresh, config);
    dbn.start();
    auto sub = NaradaClient::create(fresh.host(1), fresh.lan(),
                                    fresh.streams(), dbn.broker_endpoint(0),
                                    net::Endpoint{1, 9000},
                                    TransportKind::kTcp);
    auto pub = NaradaClient::create(fresh.host(2), fresh.lan(),
                                    fresh.streams(), dbn.broker_endpoint(0),
                                    net::Endpoint{2, 9001},
                                    TransportKind::kTcp);
    util::OnlineStats rtt;
    sub->connect([&, ack](bool) {
      // `ack` must be captured by value: the enclosing ready-handler closure
      // is destroyed once it fires, while deliveries keep arriving.
      sub->subscribe("t", "", ack,
                     [&, ack](const jms::MessagePtr& msg, SimTime) {
                       rtt.add(units::to_millis(fresh.sim().now() -
                                                msg->timestamp));
                       if (ack == jms::AcknowledgeMode::kClientAcknowledge) {
                         sub->acknowledge();
                       }
                     });
    });
    pub->connect([&](bool) {
      for (int i = 0; i < 20; ++i) {
        fresh.sim().schedule_after(units::milliseconds(100 * i), [&pub] {
          pub->publish(jms::make_text_message("t", "x"));
        });
      }
    });
    fresh.sim().run_until(units::seconds(30));
    return rtt.mean();
  };
  const double auto_ack = run_rtt(jms::AcknowledgeMode::kAutoAcknowledge);
  const double client_ack = run_rtt(jms::AcknowledgeMode::kClientAcknowledge);
  EXPECT_GT(client_ack, auto_ack + 1.5);  // ~2 ms session bookkeeping
}

TEST_F(BrokerFixture, AggregatedPublishesDeliverEveryMessage) {
  auto dbn = start_broker();
  auto sub = make_client(1, 9000, dbn->broker_endpoint(0));
  auto pub = make_client(2, 9001, dbn->broker_endpoint(0));
  pub->enable_aggregation(4);
  int received = 0;
  int sent_callbacks = 0;
  sub->connect([&](bool) {
    sub->subscribe("t", "", jms::AcknowledgeMode::kAutoAcknowledge,
                   [&](const jms::MessagePtr&, SimTime) { ++received; });
  });
  pub->connect([&](bool) {
    // 10 messages: two full batches of 4 and a timer-flushed rest of 2.
    for (int i = 0; i < 10; ++i) {
      pub->publish(jms::make_text_message("t", "x"),
                   [&](SimTime) { ++sent_callbacks; });
    }
  });
  hydra.sim().run_until(units::seconds(10));
  EXPECT_EQ(received, 10);
  EXPECT_EQ(sent_callbacks, 10);
  // The broker saw fewer wire events than messages.
  EXPECT_EQ(dbn->broker(0).stats().events_received, 3u);
  EXPECT_EQ(dbn->broker(0).stats().events_delivered, 10u);
}

// A selector that does not parse refuses that one subscription and the
// run goes on: the broker adds, charges and advertises nothing for it, and
// a valid subscriber on the same broker still receives. Returns the
// broker's heap growth across the refused subscription.
std::int64_t subscribe_past_a_malformed_selector(BrokerFixture& fixture,
                                                 TransportKind transport) {
  auto& hydra = fixture.hydra;
  auto dbn = fixture.start_broker(transport);
  const net::Endpoint broker = dbn->broker_endpoint(0);
  auto good = fixture.make_client(1, 9000, broker, transport);
  auto bad = fixture.make_client(1, 9002, broker, transport);
  auto pub = fixture.make_client(2, 9001, broker, transport);
  int good_received = 0;
  int bad_received = 0;
  good->connect([&](bool) {
    good->subscribe("t", "id >= 0", jms::AcknowledgeMode::kAutoAcknowledge,
                    [&](const jms::MessagePtr&, SimTime) { ++good_received; });
  });
  // The bad client connects first, so its link's own admission is done
  // before the heap is read.
  bad->connect([](bool) {});
  std::int64_t heap_before = 0;
  std::int64_t heap_after = 0;
  cluster::Heap& heap = hydra.host(0).heap();
  hydra.sim().schedule_at(units::seconds(1), [&] {
    heap_before = heap.used();
    bad->subscribe("t", "id <", jms::AcknowledgeMode::kAutoAcknowledge,
                   [&](const jms::MessagePtr&, SimTime) { ++bad_received; });
  });
  hydra.sim().schedule_at(units::seconds(2), [&] {
    heap_after = heap.used();
    pub->connect([&](bool) {
      for (int i = 0; i < 3; ++i) {
        jms::Message msg = jms::make_text_message("t", "x");
        msg.set_property("id", static_cast<std::int32_t>(i));
        pub->publish(std::move(msg));
      }
    });
  });
  hydra.sim().run_until(units::seconds(10));
  EXPECT_EQ(good_received, 3);
  EXPECT_EQ(bad_received, 0);
  const BrokerStats& stats = dbn->broker(0).stats();
  EXPECT_EQ(dbn->broker(0).subscription_count(), 1);
  EXPECT_EQ(stats.events_delivered, 3u);
  EXPECT_EQ(stats.connections_refused, 0u);
  // Stream clients count one connection each; a UDP client counts when its
  // subscription is admitted.
  EXPECT_EQ(stats.connections_accepted,
            transport == TransportKind::kUdp ? 1u : 3u);
  return heap_after - heap_before;
}

TEST_F(BrokerFixture, MalformedSelectorRefusesOnlyThatTcpSubscription) {
  EXPECT_EQ(subscribe_past_a_malformed_selector(*this, TransportKind::kTcp),
            0);
}

TEST_F(BrokerFixture, MalformedSelectorRefusesOnlyThatUdpSubscription) {
  // The refused UDP subscription holds no quarter connection buffer.
  EXPECT_EQ(subscribe_past_a_malformed_selector(*this, TransportKind::kUdp),
            0);
}

TEST_F(BrokerFixture, UnsubscribeStopsDelivery) {
  auto dbn = start_broker();
  auto sub = make_client(1, 9000, dbn->broker_endpoint(0));
  auto pub = make_client(2, 9001, dbn->broker_endpoint(0));
  int received = 0;
  sub->connect([&](bool) {
    sub->subscribe("t", "", jms::AcknowledgeMode::kAutoAcknowledge,
                   [&](const jms::MessagePtr&, SimTime) { ++received; });
  });
  pub->connect([&](bool) { pub->publish(jms::make_text_message("t", "1")); });
  hydra.sim().run_until(units::seconds(5));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(dbn->broker(0).subscription_count(), 1);
}

}  // namespace
}  // namespace gridmon::narada
