#include "rgma/registry_service.hpp"

#include "rgma/sql_parser.hpp"

namespace gridmon::rgma {

namespace costs = cluster::costs;

namespace {

/// Extract the table name and WHERE text from a continuous query.
struct ParsedQuery {
  std::string table;
  std::string predicate_text;
};

ParsedQuery split_query(const std::string& query) {
  auto statement = sql::parse_statement(query);
  auto* select = std::get_if<sql::Select>(&statement);
  if (select == nullptr) {
    throw sql::SqlParseError("consumer query must be a SELECT", 0);
  }
  return {std::move(select->table), std::move(select->where_text)};
}

}  // namespace

RegistryService::RegistryService(cluster::Host& host,
                                 net::StreamTransport& streams,
                                 net::Endpoint endpoint)
    : servlet_(host, streams, endpoint, 2000, "registry",
               [this] { return drop_if_half_open(); }) {
  // Producer lookups (mediation for one-time queries) return a list rather
  // than a status.
  servlet_.route(units::microseconds(350), this,
                 &RegistryService::handle_lookup);
  servlet_.route(units::microseconds(300), this,
                 &RegistryService::handle_register_producer);
  servlet_.route(units::microseconds(300), this,
                 &RegistryService::handle_register_consumer);
  servlet_.route(units::microseconds(300), this,
                 &RegistryService::handle_renewals);
}

bool RegistryService::drop_if_half_open() {
  if (!half_open_) return false;
  // Wedged container: the request is accepted and burns servlet time, but
  // the responder is dropped on the floor — the client never hears back
  // and must rescue itself with its own request timeout.
  servlet_.service(units::microseconds(300), [] {});
  return true;
}

void RegistryService::crash() {
  // Soft state dies with the container; nothing is persisted.
  if (!servlet_.crash()) return;
  producers_.clear();
  consumers_.clear();
}

void RegistryService::handle_lookup(const LookupProducersRequest& req,
                                    ServletHost::Responder& respond) {
  auto payload = std::make_shared<LookupProducersResponse>();
  for (const ProducerReg& producer : producers_) {
    if (producer.table == req.table) {
      payload->producers.emplace_back(producer.id, producer.service);
    }
  }
  net::HttpResponse resp;
  resp.body_bytes =
      16 + static_cast<std::int64_t>(payload->producers.size()) * 12;
  resp.body = std::shared_ptr<const LookupProducersResponse>(payload);
  respond(std::move(resp));
}

void RegistryService::set_registration_ttl(SimTime ttl) {
  registration_ttl_ = ttl;
  expiry_timer_.cancel();
  if (ttl <= 0) return;
  auto& sim = servlet_.host().sim();
  const SimTime sweep = ttl / 2 > 0 ? ttl / 2 : 1;
  expiry_timer_ = sim::PeriodicTimer(sim, sim.now() + sweep, sweep,
                                     [this] { expire_stale(); });
}

void RegistryService::expire_stale() {
  const SimTime now = servlet_.host().sim().now();
  const SimTime cutoff = now - registration_ttl_;
  const auto before = producers_.size();
  std::erase_if(producers_, [cutoff](const ProducerReg& producer) {
    return producer.last_renewed < cutoff;
  });
  expired_count_ += before - producers_.size();
  if (before != producers_.size()) {
    servlet_.charge(units::microseconds(200) *
                    static_cast<SimTime>(before - producers_.size()));
  }
}

void RegistryService::handle_renewals(const RenewRegistrationsRequest& req) {
  const SimTime now = servlet_.host().sim().now();
  for (std::size_t i = 0; i < req.producer_ids.size(); ++i) {
    const int id = req.producer_ids[i];
    bool known = false;
    for (ProducerReg& producer : producers_) {
      if (producer.id == id && producer.service == req.producer_service) {
        producer.last_renewed = now;
        known = true;
        break;
      }
    }
    if (known) continue;
    // The registry lost this producer (restart wiped it, or it expired).
    // When the renewal carries the table, rebuild the entry — including
    // mediation, so severed consumer attachments re-form.
    if (i >= req.tables.size() || !schema_.contains(req.tables[i])) continue;
    ++reregistrations_;
    handle_register_producer(
        RegisterProducerRequest{id, req.tables[i], req.producer_service});
  }
}

SimTime RegistryService::mediation_latency() const {
  return costs::kMediationLatencyBase +
         costs::kMediationLatencyPerProducer *
             static_cast<SimTime>(producers_.size());
}

void RegistryService::handle_register_producer(
    const RegisterProducerRequest& req) {
  if (!schema_.contains(req.table)) {
    throw std::runtime_error("table not in schema: " + req.table);
  }
  // Upsert: an *explicit* re-registration (this path, not the renewal
  // heartbeat) means the producer's container restarted and lost its
  // attachments — refresh the lease and re-run mediation so streaming
  // re-forms. The producer service dedupes attach notices by (consumer,
  // service), so a spurious re-register cannot duplicate deliveries.
  for (ProducerReg& existing : producers_) {
    if (existing.id == req.producer_id &&
        existing.service == req.producer_service) {
      existing.last_renewed = servlet_.host().sim().now();
      for (const ConsumerReg& consumer : consumers_) {
        if (consumer.table == existing.table) mediate(existing, consumer);
      }
      return;
    }
  }
  producers_.push_back(ProducerReg{req.producer_id, req.table,
                                   req.producer_service,
                                   servlet_.host().sim().now()});
  const ProducerReg& producer = producers_.back();
  for (const ConsumerReg& consumer : consumers_) {
    if (consumer.table == producer.table) mediate(producer, consumer);
  }
}

void RegistryService::handle_register_consumer(
    const RegisterConsumerRequest& req) {
  const ParsedQuery parsed = split_query(req.query);
  if (!schema_.contains(parsed.table)) {
    throw std::runtime_error("table not in schema: " + parsed.table);
  }
  // Upsert, mirroring producers: consumer-service renewals re-send the
  // registration; only a genuinely unknown consumer triggers mediation.
  for (const ConsumerReg& existing : consumers_) {
    if (existing.id == req.consumer_id &&
        existing.service == req.consumer_service) {
      return;
    }
  }
  consumers_.push_back(ConsumerReg{req.consumer_id, parsed.table,
                                   parsed.predicate_text,
                                   req.consumer_service});
  const ConsumerReg& consumer = consumers_.back();
  for (const ProducerReg& producer : producers_) {
    if (producer.table == consumer.table) mediate(producer, consumer);
  }
}

void RegistryService::mediate(const ProducerReg& producer,
                              const ConsumerReg& consumer) {
  // The mediator runs asynchronously inside the registry; plans converge
  // only after the mediation latency, which is the source of the warm-up
  // requirement (publishing before attachment loses tuples).
  const SimTime latency = mediation_latency();
  auto& sim = servlet_.host().sim();
  const auto producer_copy = producer;
  const auto consumer_copy = consumer;
  sim.schedule_after(latency, [this, producer_copy, consumer_copy] {
    servlet_.charge(units::microseconds(400));

    net::HttpRequest attach_producer;
    attach_producer.body_bytes = 96;
    attach_producer.body = std::shared_ptr<const AttachConsumerNotice>(
        std::make_shared<AttachConsumerNotice>(AttachConsumerNotice{
            producer_copy.id, consumer_copy.id, consumer_copy.service,
            consumer_copy.predicate_text}));
    servlet_.client().request(producer_copy.service,
                              std::move(attach_producer),
                              [](const net::HttpResponse&) {});

    net::HttpRequest attach_consumer;
    attach_consumer.body_bytes = 64;
    attach_consumer.body = std::shared_ptr<const AttachProducerNotice>(
        std::make_shared<AttachProducerNotice>(AttachProducerNotice{
            consumer_copy.id, producer_copy.id, producer_copy.table}));
    servlet_.client().request(consumer_copy.service,
                              std::move(attach_consumer),
                              [](const net::HttpResponse&) {});
  });
}

}  // namespace gridmon::rgma
