#include "rgma/producer_service.hpp"

#include "obs/memprof.hpp"
#include "obs/recorder.hpp"
#include "rgma/sql_compile.hpp"
#include "rgma/sql_parser.hpp"
#include "util/log.hpp"

namespace gridmon::rgma {

namespace costs = cluster::costs;

void mark_tuple(const std::vector<SqlValue>& values, std::string_view stage) {
  if constexpr (!obs::kEnabled) return;
  if (obs::tracer() == nullptr || values.size() < 2) return;
  const auto* id = std::get_if<std::int64_t>(&values[0]);
  const auto* seq = std::get_if<std::int64_t>(&values[1]);
  if (id != nullptr && seq != nullptr) obs::mark_row(*id, *seq, stage);
}

ProducerService::ProducerService(cluster::Host& host,
                                 net::StreamTransport& streams,
                                 net::Endpoint endpoint, net::Endpoint registry)
    : servlet_(host, streams, endpoint, 3000, "producer"), registry_(registry) {
  // Inserts dominate, so they are matched first; their extra CPU covers
  // SQL parsing + storage. Attach notices come from the registry's
  // mediator, store queries from a consumer service's one-time query.
  servlet_.route(costs::kInsertProcessingCost, this,
                 &ProducerService::handle_insert);
  servlet_.route(units::microseconds(200), this,
                 &ProducerService::handle_attach, kAckBytes);
  servlet_.route(units::microseconds(400), this,
                 &ProducerService::handle_store_query);
  servlet_.route(units::microseconds(150), this,
                 &ProducerService::handle_create);

  stream_timer_ = sim::PeriodicTimer(
      host.sim(), host.sim().now() + costs::kProducerStreamPeriod,
      costs::kProducerStreamPeriod, [this] { stream_cycle(); });
  maintenance_timer_ = sim::PeriodicTimer(
      host.sim(), host.sim().now() + costs::kStoreMaintenancePeriod,
      costs::kStoreMaintenancePeriod, [this] {
        // Storage housekeeping: a stop-the-world sweep over every retained
        // tuple on this server. With hundreds of producers each holding a
        // minute of history this runs to seconds — the latency spikes in
        // the paper's 95–100 % percentile plots.
        std::size_t retained = 0;
        for (const auto& [id, producer] : producers_) {
          retained += producer.store.size();
        }
        servlet_.host().cpu().stall(costs::kStoreMaintenancePerTuple *
                                    static_cast<SimTime>(retained));
      });
}

void ProducerService::add_table(const TableDef& table) {
  tables_.emplace(table.name(), table);
}

void ProducerService::enable_registration_renewal(SimTime period) {
  renewal_timer_.cancel();
  if (period <= 0) return;
  auto& sim = servlet_.host().sim();
  renewal_timer_ = sim::PeriodicTimer(sim, sim.now() + period, period, [this] {
    if (producers_.empty()) return;
    auto renewal = std::make_shared<RenewRegistrationsRequest>();
    renewal->producer_service = servlet_.endpoint();
    renewal->producer_ids.reserve(producers_.size());
    renewal->tables.reserve(producers_.size());
    for (const auto& [id, producer] : producers_) {
      renewal->producer_ids.push_back(id);
      renewal->tables.push_back(producer.table);
    }
    servlet_.charge(units::microseconds(120));
    net::HttpRequest req;
    req.body_bytes =
        32 + static_cast<std::int64_t>(renewal->producer_ids.size()) * 4;
    req.body = std::shared_ptr<const RenewRegistrationsRequest>(renewal);
    servlet_.client().request(registry_, std::move(req),
                              [](const net::HttpResponse&) {});
  });
}

void ProducerService::crash() {
  if (!servlet_.crash()) return;
  // Tear down every producer: worker thread + servlet state + stored tuples.
  for (auto& [id, producer] : producers_) {
    servlet_.host().exit_thread(costs::kRgmaConnectionBytes -
                                costs::kThreadStackBytes);
    if (producer.stored_bytes > 0) {
      servlet_.host().heap().release(producer.stored_bytes);
    }
    for (const Attachment& attachment : producer.consumers) {
      obs::mem_sub(obs::MemCategory::kPredicateCache,
                   attachment.compiled.footprint_bytes());
    }
  }
  producers_.clear();
}

void ProducerService::handle_store_query(const StoreQueryRequest& req,
                                         ServletHost::Responder& respond) {
  auto payload = std::make_shared<StoreQueryResponse>();
  const auto it = producers_.find(req.producer_id);
  if (it != producers_.end()) {
    const SimTime now = servlet_.host().sim().now();
    std::vector<Tuple> candidates = req.type == QueryType::kHistory
                                        ? it->second.store.history(now)
                                        : it->second.store.latest(now);
    const auto table_it = tables_.find(it->second.table);
    sql::ExprPtr predicate;
    if (!req.predicate.empty()) {
      predicate = sql::parse_predicate(req.predicate);
    }
    // Bind once per request: history scans evaluate the predicate against
    // every retained tuple.
    sql::CompiledPredicate compiled;
    if (table_it != tables_.end()) {
      compiled = sql::CompiledPredicate::compile(predicate, table_it->second);
    }
    for (auto& tuple : candidates) {
      servlet_.charge(units::microseconds(30));
      if (table_it == tables_.end() || compiled.selects(tuple.values)) {
        payload->tuples.push_back(std::move(tuple));
      }
    }
  }
  net::HttpResponse resp;
  resp.body_bytes = payload->wire_size();
  resp.body = std::shared_ptr<const StoreQueryResponse>(payload);
  respond(std::move(resp));
}

void ProducerService::handle_create(const CreateProducerRequest& req) {
  if (!tables_.contains(req.table)) {
    throw std::runtime_error("unknown table: " + req.table);
  }
  // One Tomcat worker thread + servlet/JDBC state per producer connection.
  const std::int64_t extra =
      costs::kRgmaConnectionBytes - costs::kThreadStackBytes;
  if (!servlet_.host().spawn_thread(extra)) {
    ++stats_.producers_refused;
    GRIDMON_WARN("rgma.producer")
        << "refused producer " << req.producer_id
        << " (OOM), producers=" << producers_.size();
    throw std::runtime_error("out of memory creating producer thread");
  }
  ProducerState state;
  state.id = req.producer_id;
  state.table = req.table;
  producers_.emplace(req.producer_id, std::move(state));

  // Register with the registry so the mediator can attach consumers.
  net::HttpRequest reg;
  reg.body_bytes = 96;
  reg.body = std::shared_ptr<const RegisterProducerRequest>(
      std::make_shared<RegisterProducerRequest>(RegisterProducerRequest{
          req.producer_id, req.table, servlet_.endpoint()}));
  servlet_.client().request(registry_, std::move(reg),
                            [](const net::HttpResponse&) {});
}

void ProducerService::handle_insert(const InsertRequest& req) {
  const auto it = producers_.find(req.producer_id);
  if (it == producers_.end()) {
    ++stats_.inserts_failed;
    throw std::runtime_error("unknown producer");
  }
  ProducerState& producer = it->second;
  try {
    const auto statement = sql::parse_statement(req.statement);
    const auto* insert = std::get_if<sql::Insert>(&statement);
    if (insert == nullptr) throw std::runtime_error("expected INSERT");
    if (insert->table != producer.table) {
      throw std::runtime_error("producer is declared for table " +
                               producer.table);
    }
    const TableDef& table = tables_.at(producer.table);
    if (const auto error = table.validate(insert->values)) {
      throw std::runtime_error(*error);
    }
    Tuple tuple;
    tuple.values = insert->values;
    mark_tuple(tuple.values, "pp_store");
    producer.store.insert(std::move(tuple), servlet_.host().sim().now());
    producer.stored_bytes += costs::kTupleBytes;
    (void)servlet_.host().heap().allocate(costs::kTupleBytes);
    ++stats_.inserts_ok;
  } catch (const std::exception&) {
    ++stats_.inserts_failed;
    throw;
  }
}

void ProducerService::handle_attach(const AttachConsumerNotice& notice) {
  const auto it = producers_.find(notice.producer_id);
  if (it == producers_.end()) return;
  ProducerState& producer = it->second;
  // Re-mediation after a registry restart re-sends attach notices for pairs
  // that are already streaming; keeping the existing cursor avoids replaying
  // tuples the consumer has already seen.
  for (const Attachment& existing : producer.consumers) {
    if (existing.consumer_id == notice.consumer_id &&
        existing.consumer_service == notice.consumer_service) {
      return;
    }
  }
  Attachment attachment;
  attachment.consumer_id = notice.consumer_id;
  attachment.consumer_service = notice.consumer_service;
  sql::ExprPtr predicate;
  if (!notice.predicate.empty()) {
    predicate = sql::parse_predicate(notice.predicate);
  }
  // Bind the push-down filter to the table once; the stream cycle runs it
  // against every fresh tuple.
  attachment.compiled =
      sql::CompiledPredicate::compile(predicate, tables_.at(producer.table));
  obs::mem_add(obs::MemCategory::kPredicateCache,
               attachment.compiled.footprint_bytes());
  // Continuous queries see only tuples inserted from now on; anything
  // already stored predates the plan and is lost to the stream (the
  // warm-up data-loss mechanism the paper measured at 0.17 %).
  attachment.cursor = producer.store.head_sequence() - 1;
  producer.consumers.push_back(std::move(attachment));
}

void ProducerService::stream_cycle() {
  const SimTime now = servlet_.host().sim().now();
  for (auto& [id, producer] : producers_) {
    // Retention pruning releases tuple heap.
    const std::size_t before = producer.store.size();
    producer.store.prune(now);
    const std::size_t pruned = before - producer.store.size();
    if (pruned > 0) {
      const auto freed =
          static_cast<std::int64_t>(pruned) * costs::kTupleBytes;
      producer.stored_bytes -= freed;
      servlet_.host().heap().release(freed);
    }

    if (producer.consumers.empty()) continue;
    for (auto& attachment : producer.consumers) {
      // Predicate push-down: filter producer-side before shipping. The
      // in-place scan copies only the selected tuples.
      std::vector<Tuple> shipped;
      producer.store.scan_since(attachment.cursor, [&](const Tuple& tuple) {
        servlet_.charge(units::microseconds(40));
        if (attachment.compiled.selects(tuple.values)) {
          shipped.push_back(tuple);
        }
      });
      if (shipped.empty()) continue;
      stats_.tuples_streamed += shipped.size();
      ++stats_.batches_sent;
      for (const Tuple& tuple : shipped) mark_tuple(tuple.values, "pp_stream");

      auto batch = std::make_shared<StreamBatch>();
      batch->producer_id = id;
      batch->table = producer.table;
      batch->tuples = std::move(shipped);

      net::HttpRequest req;
      req.body_bytes = batch->wire_size();
      req.body = std::shared_ptr<const StreamBatch>(batch);
      servlet_.charge(units::microseconds(250));
      servlet_.client().request(attachment.consumer_service, std::move(req),
                                [](const net::HttpResponse&) {});
    }
  }
}

}  // namespace gridmon::rgma
