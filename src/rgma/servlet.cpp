#include "rgma/servlet.hpp"

#include "util/log.hpp"

namespace gridmon::rgma {

ServletHost::ServletHost(cluster::Host& host, net::StreamTransport& streams,
                         net::Endpoint endpoint, int client_port_offset,
                         std::string name, std::function<bool()> intercept)
    : host_(host),
      name_(std::move(name)),
      intercept_(std::move(intercept)),
      server_(streams, endpoint,
              [this](const net::HttpRequest& req, Responder respond) {
                dispatch(req, std::move(respond));
              }),
      client_(streams,
              net::Endpoint{endpoint.node,
                            static_cast<std::uint16_t>(endpoint.port +
                                                       client_port_offset)}) {}

bool ServletHost::crash() {
  if (down_) return false;
  down_ = true;
  GRIDMON_WARN("rgma." + name_) << name_ << " container crashed";
  return true;
}

void ServletHost::restart() {
  if (!down_) return;
  down_ = false;
  GRIDMON_WARN("rgma." + name_) << name_ << " container restarted (empty)";
}

void ServletHost::dispatch(const net::HttpRequest& request,
                           Responder respond) {
  if (down_) {
    // Dead container: the front-end returns 503 without servlet work.
    respond(status_reply(503, kAckBytes));
    return;
  }
  if (intercept_ && intercept_()) return;
  for (std::size_t i = 0; i < routes_.size(); ++i) {
    std::shared_ptr<const void> body = routes_[i].match(request.body);
    if (body == nullptr) continue;
    // The completion holds `this`, the route index, the body and the
    // responder: 64 B, past EventFn's 48 B inline buffer, so each request
    // counts one spill in cb_heap_allocs and resizing the capture below
    // 48 B moves the kernel goldens.
    service(
        routes_[i].cost,
        [this, i, body = std::move(body),
         respond = std::move(respond)]() mutable {
          // A servlet that throws is answered 400.
          try {
            routes_[i].handle(body.get(), respond);
          } catch (const std::exception&) {
            if (respond) respond(status_reply(400));
          }
        },
        routes_[i].encrypt_body ? request.body_bytes : 0);
    return;
  }
  // No servlet serves this body type.
  respond(status_reply(400));
}

}  // namespace gridmon::rgma
