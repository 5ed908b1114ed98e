#include "rgma/consumer_service.hpp"

#include "obs/memprof.hpp"
#include "rgma/producer_service.hpp"
#include "rgma/sql_compile.hpp"
#include "rgma/sql_parser.hpp"

namespace gridmon::rgma {

namespace costs = cluster::costs;

namespace {

/// A reply that carries a result set (a poll's or a one-time query's).
net::HttpResponse result_set(std::shared_ptr<const PollResponse> tuples,
                             int status = 200) {
  net::HttpResponse resp;
  resp.status = status;
  resp.body_bytes = tuples->wire_size();
  resp.body = std::move(tuples);
  return resp;
}

}  // namespace

ConsumerService::ConsumerService(cluster::Host& host,
                                 net::StreamTransport& streams,
                                 net::Endpoint endpoint, net::Endpoint registry)
    : servlet_(host, streams, endpoint, 3000, "consumer"), registry_(registry) {
  // Stream batches are the hot path (enqueued for the evaluation cycle),
  // and the only bodies that pay the bulk cipher in secure mode.
  servlet_.route(units::microseconds(120), this,
                 &ConsumerService::handle_batch, kAckBytes,
                 /*encrypt_body=*/true);
  servlet_.route(units::microseconds(150), this,
                 &ConsumerService::handle_attach, kAckBytes);
  servlet_.route(units::microseconds(180), this,
                 &ConsumerService::handle_poll);
  servlet_.route(units::microseconds(500), this,
                 &ConsumerService::handle_one_time);
  servlet_.route(units::microseconds(400), this,
                 &ConsumerService::handle_create);
  arm_cycle();
}

void ConsumerService::add_table(const TableDef& table) {
  tables_.emplace(table.name(), table);
}

SimTime ConsumerService::cycle_length() const {
  return costs::kConsumerCycleBase +
         costs::kConsumerCyclePerProducer *
             static_cast<SimTime>(known_producers_.size());
}

void ConsumerService::arm_cycle() {
  cycle_event_ = servlet_.host().sim().schedule_after(
      cycle_length(), [this] { evaluation_cycle(); });
}

void ConsumerService::enable_registration_renewal(SimTime period) {
  renewal_timer_.cancel();
  if (period <= 0) return;
  auto& sim = servlet_.host().sim();
  renewal_timer_ = sim::PeriodicTimer(sim, sim.now() + period, period, [this] {
    for (const auto& [id, consumer] : consumers_) {
      servlet_.charge(units::microseconds(60));
      net::HttpRequest reg;
      reg.body_bytes = 128;
      reg.body = std::shared_ptr<const RegisterConsumerRequest>(
          std::make_shared<RegisterConsumerRequest>(RegisterConsumerRequest{
              id, consumer.query, servlet_.endpoint()}));
      servlet_.client().request(registry_, std::move(reg),
                                [](const net::HttpResponse&) {});
    }
  });
}

void ConsumerService::crash() {
  if (!servlet_.crash()) return;
  for (auto& [id, consumer] : consumers_) {
    servlet_.host().exit_thread(costs::kRgmaConnectionBytes -
                                costs::kThreadStackBytes);
    if (consumer.buffered_bytes > 0) {
      servlet_.host().heap().release(consumer.buffered_bytes);
    }
    obs::mem_sub(obs::MemCategory::kPredicateCache,
                 consumer.compiled.footprint_bytes());
  }
  consumers_.clear();
  incoming_.clear();
  if (queued_bytes_ > 0) servlet_.host().heap().release(queued_bytes_);
  obs::mem_sub(obs::MemCategory::kRgmaTuples, queued_bytes_);
  queued_bytes_ = 0;
  known_producers_.clear();
}

void ConsumerService::handle_create(const CreateConsumerRequest& req) {
  const auto statement = sql::parse_statement(req.query);
  const auto* select = std::get_if<sql::Select>(&statement);
  if (select == nullptr) throw std::runtime_error("expected SELECT");
  if (!tables_.contains(select->table)) {
    throw std::runtime_error("unknown table: " + select->table);
  }
  if (!servlet_.host().spawn_thread(costs::kRgmaConnectionBytes -
                                    costs::kThreadStackBytes)) {
    throw std::runtime_error("out of memory creating consumer thread");
  }
  ConsumerState state;
  state.id = req.consumer_id;
  state.table = select->table;
  state.query = req.query;
  // Bind the WHERE clause to the table once; the evaluation cycle runs it
  // against every queued tuple.
  state.compiled = sql::CompiledPredicate::compile(select->where,
                                                   tables_.at(state.table));
  obs::mem_add(obs::MemCategory::kPredicateCache,
               state.compiled.footprint_bytes());
  consumers_.emplace(req.consumer_id, std::move(state));

  net::HttpRequest reg;
  reg.body_bytes = 128;
  reg.body = std::shared_ptr<const RegisterConsumerRequest>(
      std::make_shared<RegisterConsumerRequest>(RegisterConsumerRequest{
          req.consumer_id, req.query, servlet_.endpoint()}));
  servlet_.client().request(registry_, std::move(reg),
                            [](const net::HttpResponse&) {});
}

void ConsumerService::handle_attach(const AttachProducerNotice& notice) {
  known_producers_.insert(notice.producer_id);
}

void ConsumerService::handle_batch(const StreamBatch& batch) {
  ++stats_.batches_received;
  known_producers_.insert(batch.producer_id);

  if (legacy_stream_api_) {
    // Old StreamProducer/Archiver path: tuples land in result buffers as
    // they arrive, with only per-tuple matching cost — no evaluation-cycle
    // wait. This is why related work [11] saw far better latency from the
    // old API than the paper measured on the new one.
    if (!tables_.contains(batch.table)) return;
    for (const auto& tuple : batch.tuples) {
      servlet_.charge(costs::kConsumerTupleCost);
      match_tuple(batch.table, tuple);
    }
    return;
  }

  for (const auto& tuple : batch.tuples) mark_tuple(tuple.values, "cs_queue");
  const std::int64_t batch_bytes = batch.wire_size();
  queued_bytes_ += batch_bytes;
  obs::mem_add(obs::MemCategory::kRgmaTuples, batch_bytes);
  (void)servlet_.host().heap().allocate(batch_bytes);
  incoming_.push_back(batch);
}

void ConsumerService::evaluation_cycle() {
  // Sweep cost: plan walk plus per-tuple matching, charged to the CPU. The
  // next cycle is armed from *completion*, so an overloaded host lengthens
  // the effective cycle — queueing shows up exactly where the paper saw it.
  std::size_t tuple_count = 0;
  for (const auto& batch : incoming_) tuple_count += batch.tuples.size();
  const SimTime sweep =
      units::microseconds(120) * static_cast<SimTime>(known_producers_.size() + 1) +
      costs::kConsumerTupleCost * static_cast<SimTime>(tuple_count);

  // Move the queued work out before yielding to the CPU model.
  std::deque<StreamBatch> work;
  work.swap(incoming_);
  servlet_.host().heap().release(queued_bytes_);
  obs::mem_sub(obs::MemCategory::kRgmaTuples, queued_bytes_);
  queued_bytes_ = 0;

  const SimTime demand =
      servlet_.host().loaded(sweep, costs::kServletThreadLoadFactor);
  servlet_.host().cpu().execute(demand, [this, work = std::move(work)] {
    for (const auto& batch : work) {
      if (!tables_.contains(batch.table)) continue;
      for (const auto& tuple : batch.tuples) match_tuple(batch.table, tuple);
    }
    arm_cycle();
  });
}

void ConsumerService::match_tuple(const std::string& table,
                                  const Tuple& tuple) {
  bool matched = false;
  for (auto& [id, consumer] : consumers_) {
    if (consumer.table != table) continue;
    if (!consumer.compiled.selects(tuple.values)) continue;
    consumer.buffer.push_back(tuple);
    const std::int64_t bytes = tuple.wire_size();
    consumer.buffered_bytes += bytes;
    (void)servlet_.host().heap().allocate(bytes);
    matched = true;
  }
  if (matched) {
    mark_tuple(tuple.values, "cs_match");
    ++stats_.tuples_matched;
  }
}

void ConsumerService::handle_one_time(const OneTimeQueryRequest& req,
                                      ServletHost::Responder& respond) {
  // The mediator plans the one-time query: look up the table's producers
  // in the registry, query each producer's store, merge the result sets.
  auto statement = sql::parse_statement(req.query);
  auto* select = std::get_if<sql::Select>(&statement);
  if (select == nullptr) throw std::runtime_error("expected SELECT");

  net::HttpRequest lookup;
  lookup.body_bytes = 48;
  lookup.body = std::shared_ptr<const LookupProducersRequest>(
      std::make_shared<LookupProducersRequest>(
          LookupProducersRequest{select->table}));
  // The WHERE text is pushed down to each producer.
  servlet_.client().request(
      registry_, std::move(lookup),
      [this, type = req.type, predicate_text = std::move(select->where_text),
       respond = std::move(respond)](
          const net::HttpResponse& lookup_resp) mutable {
        std::vector<std::pair<int, net::Endpoint>> producers;
        if (const auto* list = std::any_cast<
                std::shared_ptr<const LookupProducersResponse>>(
                &lookup_resp.body)) {
          producers = (*list)->producers;
        }
        if (producers.empty()) {
          respond(result_set(std::make_shared<PollResponse>()));
          return;
        }
        // Fan out to every producer; merge when all answered.
        struct Gather {
          std::size_t awaiting;
          std::shared_ptr<PollResponse> merged =
              std::make_shared<PollResponse>();
          ServletHost::Responder respond;
        };
        auto gather = std::make_shared<Gather>();
        gather->awaiting = producers.size();
        gather->respond = std::move(respond);
        for (const auto& [producer_id, service] : producers) {
          net::HttpRequest store_query;
          store_query.body_bytes =
              48 + static_cast<std::int64_t>(predicate_text.size());
          store_query.body = std::shared_ptr<const StoreQueryRequest>(
              std::make_shared<StoreQueryRequest>(
                  StoreQueryRequest{producer_id, type, predicate_text}));
          servlet_.client().request(
              service, std::move(store_query),
              [this, gather](const net::HttpResponse& store_resp) {
                if (const auto* tuples = std::any_cast<
                        std::shared_ptr<const StoreQueryResponse>>(
                        &store_resp.body)) {
                  for (const auto& tuple : (*tuples)->tuples) {
                    servlet_.charge(units::microseconds(25));
                    gather->merged->tuples.push_back(tuple);
                  }
                }
                if (--gather->awaiting == 0) {
                  gather->respond(result_set(std::move(gather->merged)));
                }
              });
        }
      });
}

void ConsumerService::handle_poll(const PollRequest& req,
                                  ServletHost::Responder& respond) {
  ++stats_.polls_served;
  const auto it = consumers_.find(req.consumer_id);
  auto payload = std::make_shared<PollResponse>();
  int status = 200;
  if (it != consumers_.end()) {
    payload->tuples = std::move(it->second.buffer);
    it->second.buffer.clear();
    servlet_.host().heap().release(it->second.buffered_bytes);
    it->second.buffered_bytes = 0;
  } else {
    // A container restart wiped this consumer; tell the client so its
    // retry policy can re-create it instead of polling an empty void.
    status = 404;
  }
  respond(result_set(std::move(payload), status));
}

}  // namespace gridmon::rgma
