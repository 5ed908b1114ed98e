// The servlet container every R-GMA service runs in.
//
// Every R-GMA component runs as a servlet inside Tomcat: each request costs
// container dispatch CPU, inflated by the live worker-thread count (the
// paper's R-GMA server degraded much faster per connection than the Narada
// broker — servlet + JDBC machinery is heavier than a raw socket loop).
//
// The registry, producer and consumer services share this container: its
// HTTP listener and HTTPS flag, its up/down state and the 503 a dead
// container answers, its outbound HTTP client, and the dispatch from a
// request's body type to the servlet route that serves it. A service adds
// its routes and keeps its own state.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/costs.hpp"
#include "cluster/host.hpp"
#include "net/http.hpp"
#include "sim/event_fn.hpp"

namespace gridmon::rgma {

/// Modelled body bytes of a reply that carries only its status: a verdict
/// on a create, an insert or a registration, or an acknowledgement (of a
/// notice or a stream batch, and the dead container's 503).
inline constexpr std::int64_t kVerdictBytes = 32;
inline constexpr std::int64_t kAckBytes = 16;

[[nodiscard]] inline net::HttpResponse status_reply(
    int status, std::int64_t body_bytes = kVerdictBytes) {
  net::HttpResponse resp;
  resp.status = status;
  resp.body_bytes = body_bytes;
  return resp;
}

class ServletHost {
 public:
  using Responder = net::HttpServer::Responder;

  /// Listen on `endpoint`; outbound requests leave from port
  /// `endpoint.port + client_port_offset`. `name` labels the crash and
  /// restart log lines. A live container offers each request to
  /// `intercept` before dispatch; it returns true for a request it has
  /// taken (the registry's half-open drop).
  ServletHost(cluster::Host& host, net::StreamTransport& streams,
              net::Endpoint endpoint, int client_port_offset,
              std::string name, std::function<bool()> intercept = {});

  ServletHost(const ServletHost&) = delete;
  ServletHost& operator=(const ServletHost&) = delete;

  /// Serve requests whose body is a `std::shared_ptr<const Body>`: after
  /// servlet dispatch plus `cost`, `(service->*handle)(body, respond)` runs
  /// and answers through `respond`. Routes are tried in the order they were
  /// added, so the hot ones go first.
  template <typename Service, typename Body>
  void route(SimTime cost, Service* service,
             void (Service::*handle)(const Body&, Responder&)) {
    add<Body>(cost, false,
              [service, handle](const void* body, Responder& respond) {
                (service->*handle)(*static_cast<const Body*>(body), respond);
              });
  }

  /// A route whose reply is its status alone: 200 with `reply_bytes` of
  /// body once `(service->*handle)(body)` returns. In secure mode a route
  /// with `encrypt_body` also pays the bulk cipher on the request body's
  /// modelled bytes (only stream batches do).
  template <typename Service, typename Body>
  void route(SimTime cost, Service* service,
             void (Service::*handle)(const Body&),
             std::int64_t reply_bytes = kVerdictBytes,
             bool encrypt_body = false) {
    add<Body>(cost, encrypt_body,
              [service, handle, reply_bytes](const void* body,
                                             Responder& respond) {
                (service->*handle)(*static_cast<const Body*>(body));
                respond(status_reply(200, reply_bytes));
              });
  }

  /// Secure (HTTPS) mode: every request additionally pays TLS record +
  /// MAC processing.
  void set_secure(bool secure) { secure_ = secure; }

  /// Fault injection: the container dies and answers every request 503
  /// until restart(). Returns false when it was already down, so the
  /// caller wipes its state once.
  bool crash();
  void restart();
  [[nodiscard]] bool down() const { return down_; }

  /// Charge servlet dispatch plus `extra` work; run `done` at completion.
  /// `crypto_bytes` is the body size subject to encryption in secure mode.
  void service(SimTime extra, sim::EventFn done,
               std::int64_t crypto_bytes = 0) {
    SimTime demand = cluster::costs::kServletRequestCost + extra;
    if (secure_) {
      demand += cluster::costs::kTlsPerRequest +
                static_cast<SimTime>(static_cast<double>(crypto_bytes) *
                                     cluster::costs::kTlsPerByteNs);
    }
    host_.cpu().execute(
        host_.loaded(demand, cluster::costs::kServletThreadLoadFactor),
        std::move(done));
  }

  /// Fire-and-forget CPU charge with the servlet load factor applied.
  void charge(SimTime demand) {
    host_.cpu().charge(
        host_.loaded(demand, cluster::costs::kServletThreadLoadFactor));
  }

  [[nodiscard]] cluster::Host& host() { return host_; }
  [[nodiscard]] net::Endpoint endpoint() const { return server_.endpoint(); }
  [[nodiscard]] net::HttpClient& client() { return client_; }

 private:
  using Handle = std::function<void(const void* body, Responder& respond)>;
  struct Route {
    /// The body when the request carries this route's type, else null.
    std::shared_ptr<const void> (*match)(const std::any& body);
    SimTime cost;
    bool encrypt_body;
    Handle handle;
  };

  template <typename Body>
  void add(SimTime cost, bool encrypt_body, Handle handle) {
    routes_.push_back(Route{
        [](const std::any& body) -> std::shared_ptr<const void> {
          const auto* typed =
              std::any_cast<std::shared_ptr<const Body>>(&body);
          if (typed == nullptr) return nullptr;
          return *typed;
        },
        cost, encrypt_body, std::move(handle)});
  }

  void dispatch(const net::HttpRequest& request, Responder respond);

  cluster::Host& host_;
  std::string name_;
  std::function<bool()> intercept_;
  net::HttpServer server_;
  net::HttpClient client_;
  std::vector<Route> routes_;
  bool secure_ = false;
  bool down_ = false;
};

}  // namespace gridmon::rgma
