// HTTP/1.1-style request/response layer over the stream transport.
//
// R-GMA's components speak HTTP to each other (servlets on Tomcat); this
// layer models persistent connections, FIFO request/response matching, and
// the header overhead HTTP adds to every exchange. Bodies are opaque
// middleware objects; only their modelled byte size affects timing.
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "net/stream.hpp"

namespace gridmon::net {

struct HttpRequest {
  std::int64_t body_bytes = 0;
  std::any body;
  std::uint64_t correlation_id = 0;  ///< assigned by HttpClient
};

struct HttpResponse {
  int status = 200;
  std::int64_t body_bytes = 0;
  std::any body;
  std::uint64_t correlation_id = 0;  ///< echoed from the request
};

/// Byte overhead added to each request/response for start line + headers.
constexpr std::int64_t kHttpRequestOverhead = 240;
constexpr std::int64_t kHttpResponseOverhead = 160;

class HttpServer {
 public:
  /// `respond` must eventually be invoked exactly once per request; the
  /// handler may complete asynchronously (e.g. after queueing on the host
  /// CPU model).
  using Responder = std::function<void(HttpResponse)>;
  using Handler = std::function<void(const HttpRequest&, Responder)>;

  HttpServer(StreamTransport& transport, Endpoint endpoint, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  [[nodiscard]] Endpoint endpoint() const { return endpoint_; }
  [[nodiscard]] std::uint64_t requests_served() const { return served_; }

 private:
  void on_accept(StreamConnectionPtr conn);

  StreamTransport& transport_;
  Endpoint endpoint_;
  Handler handler_;
  std::uint64_t served_ = 0;
};

class HttpClient {
 public:
  using ResponseHandler = std::function<void(const HttpResponse&)>;

  /// `local` identifies the client host; ports for outgoing connections are
  /// drawn from an ephemeral range starting at `local.port`.
  HttpClient(StreamTransport& transport, Endpoint local);

  /// Issue a request to `server`, reusing (or establishing) the persistent
  /// connection to it. Requests carry correlation ids, so responses match
  /// their handlers even when the server completes them out of order (its
  /// servlet threads finish independently).
  void request(Endpoint server, HttpRequest req, ResponseHandler on_response);

  /// Arm a per-request timeout: a request still unanswered after `timeout`
  /// fails with 408 and any late response is discarded. 0 (the default)
  /// disables the timer entirely — a half-open server then hangs its
  /// clients forever, which is exactly what the timeout exists to catch.
  void set_request_timeout(SimTime timeout) { request_timeout_ = timeout; }

 private:
  struct ServerChannel {
    StreamConnectionPtr conn;
    bool connecting = false;
    std::deque<std::pair<HttpRequest, ResponseHandler>> to_send;
    std::unordered_map<std::uint64_t, ResponseHandler> awaiting;
  };

  void flush(Endpoint server, ServerChannel& channel);

  StreamTransport& transport_;
  Endpoint local_;
  std::uint16_t next_port_;
  std::uint64_t next_correlation_ = 1;
  SimTime request_timeout_ = 0;
  std::unordered_map<Endpoint, ServerChannel, EndpointHash> channels_;
};

}  // namespace gridmon::net
