#include "net/http.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gridmon::net {
namespace {

struct HttpFixture : ::testing::Test {
  sim::Simulation sim{1};
  LanConfig config{.node_count = 4};
  Lan lan{sim, config};
  StreamTransport transport{lan};
};

TEST_F(HttpFixture, RequestResponseRoundTrip) {
  HttpServer server(transport, Endpoint{1, 8080},
                    [](const HttpRequest& req, HttpServer::Responder respond) {
                      EXPECT_EQ(std::any_cast<std::string>(req.body), "ping");
                      HttpResponse resp;
                      resp.body_bytes = 4;
                      resp.body = std::string("pong");
                      respond(std::move(resp));
                    });
  HttpClient client(transport, Endpoint{0, 40000});
  int responses = 0;
  HttpRequest req;
  req.body_bytes = 4;
  req.body = std::string("ping");
  client.request(Endpoint{1, 8080}, std::move(req),
                 [&](const HttpResponse& resp) {
                   EXPECT_EQ(resp.status, 200);
                   EXPECT_EQ(std::any_cast<std::string>(resp.body), "pong");
                   ++responses;
                 });
  sim.run();
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST_F(HttpFixture, OutOfOrderCompletionMatchesByCorrelation) {
  // The server answers the FIRST request slowly and the SECOND immediately;
  // responses must still reach the right handlers.
  std::vector<HttpServer::Responder> delayed;
  HttpServer server(transport, Endpoint{1, 8080},
                    [&](const HttpRequest& req, HttpServer::Responder respond) {
                      if (std::any_cast<std::string>(req.body) == "slow") {
                        delayed.push_back(std::move(respond));
                        return;
                      }
                      HttpResponse resp;
                      resp.body = std::string("fast");
                      respond(std::move(resp));
                    });
  HttpClient client(transport, Endpoint{0, 40000});
  std::vector<std::string> arrivals;
  HttpRequest slow;
  slow.body = std::string("slow");
  client.request(Endpoint{1, 8080}, std::move(slow),
                 [&](const HttpResponse& resp) {
                   arrivals.push_back(std::any_cast<std::string>(resp.body));
                 });
  HttpRequest fast;
  fast.body = std::string("fast");
  client.request(Endpoint{1, 8080}, std::move(fast),
                 [&](const HttpResponse& resp) {
                   arrivals.push_back(std::any_cast<std::string>(resp.body));
                 });
  // Release the slow response after the fast one went out.
  sim.schedule_at(units::seconds(1), [&] {
    ASSERT_EQ(delayed.size(), 1u);
    HttpResponse resp;
    resp.body = std::string("slow");
    delayed.front()(std::move(resp));
  });
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], "fast");
  EXPECT_EQ(arrivals[1], "slow");
}

TEST_F(HttpFixture, RefusedConnectionYields503) {
  HttpClient client(transport, Endpoint{0, 40000});
  int status = 0;
  client.request(Endpoint{1, 9999}, HttpRequest{},
                 [&](const HttpResponse& resp) { status = resp.status; });
  sim.run();
  EXPECT_EQ(status, 503);
}

TEST_F(HttpFixture, PersistentConnectionServesManyRequests) {
  int served = 0;
  HttpServer server(transport, Endpoint{1, 8080},
                    [&](const HttpRequest&, HttpServer::Responder respond) {
                      ++served;
                      respond(HttpResponse{});
                    });
  HttpClient client(transport, Endpoint{0, 40000});
  int responses = 0;
  for (int i = 0; i < 25; ++i) {
    client.request(Endpoint{1, 8080}, HttpRequest{},
                   [&](const HttpResponse&) { ++responses; });
  }
  sim.run();
  EXPECT_EQ(served, 25);
  EXPECT_EQ(responses, 25);
}

TEST_F(HttpFixture, TwoServersOneClient) {
  auto handler = [](const HttpRequest&, HttpServer::Responder respond) {
    respond(HttpResponse{});
  };
  HttpServer a(transport, Endpoint{1, 8080}, handler);
  HttpServer b(transport, Endpoint{2, 8080}, handler);
  HttpClient client(transport, Endpoint{0, 40000});
  int responses = 0;
  for (int i = 0; i < 4; ++i) {
    HttpRequest req;
    client.request(Endpoint{i % 2 == 0 ? 1 : 2, 8080}, std::move(req),
                   [&](const HttpResponse&) { ++responses; });
  }
  sim.run();
  EXPECT_EQ(responses, 4);
  EXPECT_EQ(a.requests_served(), 2u);
  EXPECT_EQ(b.requests_served(), 2u);
}

TEST_F(HttpFixture, BodyBytesDriveTiming) {
  SimTime small_rtt = 0;
  SimTime big_rtt = 0;
  HttpServer server(transport, Endpoint{1, 8080},
                    [](const HttpRequest& req, HttpServer::Responder respond) {
                      HttpResponse resp;
                      resp.body_bytes = req.body_bytes;  // echo size
                      respond(std::move(resp));
                    });
  HttpClient client(transport, Endpoint{0, 40000});
  HttpRequest small;
  small.body_bytes = 100;
  const SimTime t0 = sim.now();
  client.request(Endpoint{1, 8080}, std::move(small),
                 [&](const HttpResponse&) { small_rtt = sim.now() - t0; });
  sim.run();
  HttpRequest big;
  big.body_bytes = 500'000;
  const SimTime t1 = sim.now();
  client.request(Endpoint{1, 8080}, std::move(big),
                 [&](const HttpResponse&) { big_rtt = sim.now() - t1; });
  sim.run();
  EXPECT_GT(big_rtt, small_rtt * 5);
}

}  // namespace
}  // namespace gridmon::net
