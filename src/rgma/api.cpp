#include "rgma/api.hpp"

#include "cluster/costs.hpp"
#include "rgma/sql_parser.hpp"

namespace gridmon::rgma {

namespace costs = cluster::costs;

namespace {

/// The round trip a producer's declare and a consumer's create share: the
/// request leaves after the client's send cost, and `on_ready(ok)` hears
/// whether the service took it (`refused` records a refusal).
void create_round_trip(cluster::Host& host, net::HttpClient& http,
                       net::Endpoint service, net::HttpRequest req,
                       bool& refused, std::function<void(bool ok)> on_ready) {
  host.cpu().execute(costs::kClientSendBase, [&http, service, &refused,
                                              req = std::move(req),
                                              on_ready = std::move(
                                                  on_ready)]() mutable {
    http.request(service, std::move(req),
                 [&refused, on_ready = std::move(on_ready)](
                     const net::HttpResponse& resp) {
                   const bool ok = resp.status == 200;
                   refused = !ok;
                   if (on_ready) on_ready(ok);
                 });
  });
}

}  // namespace

PrimaryProducer::PrimaryProducer(cluster::Host& host, net::HttpClient& http,
                                 net::Endpoint producer_service, int id,
                                 std::string table)
    : host_(host),
      http_(http),
      service_(producer_service),
      id_(id),
      table_(std::move(table)) {}

void PrimaryProducer::declare(std::function<void(bool ok)> on_ready) {
  net::HttpRequest req;
  req.body_bytes = 128;
  req.body = std::shared_ptr<const CreateProducerRequest>(
      std::make_shared<CreateProducerRequest>(CreateProducerRequest{
          id_, table_}));
  create_round_trip(host_, http_, service_, std::move(req), refused_,
                    std::move(on_ready));
}

void PrimaryProducer::insert(
    std::vector<SqlValue> row,
    std::function<void(bool ok, SimTime after_sending)> on_done) {
  // Render the INSERT text on the client CPU (the API wraps values into an
  // SQL statement), then POST it.
  std::string statement = sql::render_insert(table_, row);
  const SimTime demand =
      costs::kClientSendBase +
      static_cast<SimTime>(static_cast<double>(statement.size()) *
                           costs::kSerializePerByteNs);
  host_.cpu().execute(demand, [this, statement = std::move(statement),
                               on_done = std::move(on_done)]() mutable {
    net::HttpRequest req;
    req.body_bytes = static_cast<std::int64_t>(statement.size()) + 24;
    req.body = std::shared_ptr<const InsertRequest>(
        std::make_shared<InsertRequest>(InsertRequest{id_, std::move(statement)}));
    http_.request(service_, std::move(req),
                  [this, on_done = std::move(on_done)](
                      const net::HttpResponse& resp) {
                    if (resp.status != 200 && redeclare_enabled_) {
                      schedule_redeclare();
                    }
                    if (on_done) {
                      on_done(resp.status == 200, host_.sim().now());
                    }
                  });
  });
}

void PrimaryProducer::schedule_redeclare() {
  if (redeclaring_) return;
  redeclaring_ = true;
  ++redeclares_;
  const SimTime delay = kRedeclareBackoff.delay(++redeclare_attempt_);
  host_.sim().schedule_after(delay, [this] {
    declare([this](bool ok) {
      // Leave redeclaring_ set until the response: while the service is
      // still down, failed inserts in the meantime must not stack extra
      // redeclare attempts.
      redeclaring_ = false;
      if (ok) redeclare_attempt_ = 0;
    });
  });
}

Consumer::Consumer(cluster::Host& host, net::HttpClient& http,
                   net::Endpoint consumer_service, int id, std::string query)
    : host_(host),
      http_(http),
      service_(consumer_service),
      id_(id),
      query_(std::move(query)) {}

void Consumer::create(std::function<void(bool ok)> on_ready) {
  net::HttpRequest req;
  req.body_bytes = static_cast<std::int64_t>(query_.size()) + 32;
  req.body = std::shared_ptr<const CreateConsumerRequest>(
      std::make_shared<CreateConsumerRequest>(
          CreateConsumerRequest{id_, query_}));
  create_round_trip(host_, http_, service_, std::move(req), refused_,
                    std::move(on_ready));
}

template <typename Then>
std::size_t Consumer::receive(const net::HttpResponse& resp, Then then) {
  std::vector<Tuple> tuples;
  if (const auto* payload =
          std::any_cast<std::shared_ptr<const PollResponse>>(&resp.body)) {
    tuples = (*payload)->tuples;
  }
  const std::size_t count = tuples.size();
  // Deserialising the result set costs client CPU. The completion holds
  // the tuples and `then`: a poll's or a one-time query's (64 B) spills
  // out of EventFn's 48 B buffer, a backfill's (40 B) stays inline.
  const SimTime demand =
      costs::kClientReceiveBase +
      static_cast<SimTime>(static_cast<double>(resp.body_bytes) *
                           costs::kSerializePerByteNs);
  host_.cpu().execute(demand, [tuples = std::move(tuples),
                               then = std::move(then)]() mutable {
    then(std::move(tuples));
  });
  return count;
}

void Consumer::one_time(
    QueryType type,
    std::function<void(std::vector<Tuple>, SimTime)> on_tuples) {
  const SimTime issued = host_.sim().now();
  net::HttpRequest req;
  req.body_bytes = static_cast<std::int64_t>(query_.size()) + 32;
  req.body = std::shared_ptr<const OneTimeQueryRequest>(
      std::make_shared<OneTimeQueryRequest>(OneTimeQueryRequest{query_, type}));
  http_.request(service_, std::move(req),
                [this, issued, on_tuples = std::move(on_tuples)](
                    const net::HttpResponse& resp) {
                  receive(resp, [issued, on_tuples](std::vector<Tuple> tuples) {
                    on_tuples(std::move(tuples), issued);
                  });
                });
}

void Consumer::poll(std::function<void(std::vector<Tuple>, SimTime)>
                        on_tuples) {
  const SimTime issued = host_.sim().now();
  net::HttpRequest req;
  req.body_bytes = 24;
  req.body = std::shared_ptr<const PollRequest>(
      std::make_shared<PollRequest>(PollRequest{id_}));
  http_.request(service_, std::move(req),
                [this, issued, on_tuples = std::move(on_tuples)](
                    const net::HttpResponse& resp) {
                  if (resp.status != 200 && retry_enabled_) {
                    schedule_recreate();
                  }
                  receive(resp, [issued, on_tuples](std::vector<Tuple> tuples) {
                    on_tuples(std::move(tuples), issued);
                  });
                });
}

void Consumer::enable_retry(SimTime timeout) {
  retry_enabled_ = true;
  retry_timeout_ = timeout;
}

void Consumer::enable_replay(
    std::function<void(std::vector<Tuple>, SimTime)> on_backfill) {
  replay_enabled_ = true;
  on_backfill_ = std::move(on_backfill);
}

void Consumer::schedule_recreate() {
  if (recreating_) return;
  recreating_ = true;
  ++recreates_;
  host_.sim().schedule_after(retry_timeout_, [this] {
    create([this](bool ok) {
      recreating_ = false;
      // The continuous query is live again, but everything published during
      // the outage already streamed past it: replay the gap from producer
      // retention with a one-time history query.
      if (ok && replay_enabled_) request_backfill();
    });
  });
}

void Consumer::request_backfill() {
  const SimTime issued = host_.sim().now();
  net::HttpRequest req;
  req.body_bytes = static_cast<std::int64_t>(query_.size()) + 32;
  req.body = std::shared_ptr<const OneTimeQueryRequest>(
      std::make_shared<OneTimeQueryRequest>(
          OneTimeQueryRequest{query_, QueryType::kHistory}));
  http_.request(
      service_, std::move(req), [this, issued](const net::HttpResponse& resp) {
        backfill_bytes_ += resp.body_bytes + net::kHttpResponseOverhead;
        backfill_tuples_ +=
            receive(resp, [this, issued](std::vector<Tuple> tuples) {
              if (on_backfill_) on_backfill_(std::move(tuples), issued);
            });
      });
}

}  // namespace gridmon::rgma
