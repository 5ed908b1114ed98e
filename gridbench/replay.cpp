#include "replay.hpp"

#include <algorithm>
#include <any>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "cluster/hydra.hpp"
#include "core/metrics.hpp"
#include "core/payloads.hpp"
#include "hier/aggregator.hpp"
#include "jms/selector.hpp"
#include "mqtt/sub_index.hpp"
#include "rgma/sql_compile.hpp"
#include "rgma/sql_parser.hpp"
#include "sim/simulation.hpp"

namespace gridbench {

namespace {

using namespace gridmon;

/// Distinct inputs kept per run (rows, messages, topics); longer streams
/// cycle through them. Ids are spread evenly over the run's fleet.
constexpr std::int64_t kPoolSize = 1024;
/// Messages the net replay sends at most: enough for a stable per-message
/// figure without repeating the whole campaign's traffic.
constexpr std::uint64_t kNetReplayCap = 2'000'000;
/// Messages the net replay keeps in flight.
constexpr std::uint64_t kNetWindow = 64;

template <typename Config>
[[nodiscard]] const Config* config_of(const RunInput& run) {
  return std::get_if<Config>(&run.spec->config);
}

[[nodiscard]] std::uint64_t sent_of(const RunInput& run) {
  return run.record->results.metrics.sent();
}

/// Upstream frames a hier run publishes: one per regional per window (both
/// tiers reduce).
[[nodiscard]] std::uint64_t hier_frames(const core::HierConfig& config,
                                        SimTime duration) {
  const auto shape = config.topology.expand();
  const SimTime window = config.topology.regional.window;
  return static_cast<std::uint64_t>(shape.regionals) *
         static_cast<std::uint64_t>(window > 0 ? duration / window : 0);
}

[[nodiscard]] std::int64_t pool_id(std::int64_t slot, std::int64_t pool,
                                   std::int64_t fleet) {
  return slot * fleet / pool;
}

[[nodiscard]] double per_item_ns(double seconds, std::uint64_t items) {
  return items > 0 ? seconds * 1e9 / static_cast<double>(items) : 0.0;
}

// --- sim ---------------------------------------------------------------------

struct Actor {
  sim::Simulation* sim = nullptr;
  std::uint64_t rng = 0;
  std::uint64_t* budget = nullptr;
};

void arm(Actor* actor) {
  actor->rng = actor->rng * 6364136223846793005ULL + 1442695040888963407ULL;
  const SimTime delay = units::microseconds(
      100 + static_cast<std::int64_t>((actor->rng >> 33) % 10'000));
  actor->sim->schedule_after(delay, [actor] {
    if (*actor->budget == 0) return;
    --*actor->budget;
    arm(actor);
  });
}

/// A bare kernel executing the workload's event count with its peak queue
/// depth of pending events: one self-rescheduling actor per queue slot.
void replay_sim(SpanLog& log, int parent, const std::vector<RunInput>& runs,
                ReplayResult& out) {
  std::uint64_t events = 0;
  std::uint64_t depth = 0;
  for (const RunInput& run : runs) {
    events += run.record->results.kernel.events_executed;
    depth = std::max(depth, run.record->results.kernel.peak_queue_depth);
  }
  depth = std::clamp<std::uint64_t>(depth, 1,
                                    std::max<std::uint64_t>(events, 1));
  double seconds = 0;
  if (events > 0) {
    ScopedSpan span(&log, "sim.replay", "sim", parent);
    sim::Simulation sim(1);
    std::uint64_t budget = events - depth;
    std::vector<Actor> actors(depth);
    for (std::size_t i = 0; i < actors.size(); ++i) {
      actors[i] = Actor{&sim, 0x9E3779B97F4A7C15ULL ^ i, &budget};
      arm(&actors[i]);
    }
    const std::uint64_t executed = sim.run();
    if (executed != events) {
      out.failures.push_back("sim replay executed " + std::to_string(executed) +
                             " of " + std::to_string(events) + " events");
    }
    seconds = span.close();
  }
  out.metrics["sim.ns_per_event"] = per_item_ns(seconds, events);
  out.self_seconds += seconds;
}

// --- net ---------------------------------------------------------------------

/// StreamConnection::send plus delivery between two hosts of a Hydra
/// testbed: the workload's message count (capped) at its mean wire size.
void replay_net(SpanLog& log, int parent, const std::vector<RunInput>& runs,
                SimTime duration, ReplayResult& out) {
  std::uint64_t workload_messages = 0;
  std::int64_t wire_bytes = 0;
  for (const RunInput& run : runs) {
    const auto* hier = config_of<core::HierConfig>(run);
    workload_messages +=
        hier != nullptr ? hier_frames(*hier, duration) : sent_of(run);
    wire_bytes += run.record->results.wire_bytes;
  }
  // The mean size is the whole workload's; only the count is capped.
  const std::uint64_t messages = std::min(workload_messages, kNetReplayCap);
  double seconds = 0;
  if (messages > 0) {
    const std::int64_t bytes = std::max<std::int64_t>(
        1, wire_bytes / static_cast<std::int64_t>(workload_messages));
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    // Frames travel as shared immutable objects inside std::any, as the
    // middleware models pass them.
    const auto frame = std::make_shared<const std::int64_t>(bytes);
    ScopedSpan span(&log, "net.replay", "net", parent);
    {
      cluster::HydraConfig config;
      config.node_count = 2;
      cluster::Hydra hydra(config);
      net::StreamConnectionPtr client;
      auto send_one = [&] {
        client->send(0, bytes, frame);
        ++sent;
      };
      hydra.streams().listen(
          net::Endpoint{0, 80}, [&](const net::StreamConnectionPtr& conn) {
            conn->set_handler(1, [&](const net::Datagram&) {
              ++delivered;
              if (sent < messages) {
                send_one();
              } else if (delivered == messages) {
                hydra.sim().stop();  // hosts keep periodic timers armed
              }
            });
          });
      hydra.streams().connect(
          net::Endpoint{1, 5000}, net::Endpoint{0, 80},
          [&](net::StreamConnectionPtr conn) {
            client = std::move(conn);
            if (!client) return;
            for (std::uint64_t i = 0; i < kNetWindow && sent < messages; ++i) {
              send_one();
            }
          });
      hydra.sim().run();
      client.reset();
    }
    if (delivered != messages) {
      out.failures.push_back("net replay delivered " +
                             std::to_string(delivered) + " of " +
                             std::to_string(messages) + " messages");
    }
    seconds = span.close();
  }
  out.metrics["net.send_ns"] = per_item_ns(seconds, messages);
  out.self_seconds += seconds;
}

// --- mqtt --------------------------------------------------------------------

/// SubscriptionIndex::match over the flat MQTT runs' topic streams against
/// the monitoring subscriber's 'powergrid/#' filter.
void replay_mqtt(SpanLog& log, int parent, const std::vector<RunInput>& runs,
                 ReplayResult& out) {
  std::uint64_t publishes = 0;
  double seconds = 0;
  for (const RunInput& run : runs) {
    const auto* config = config_of<core::MqttConfig>(run);
    if (config == nullptr || sent_of(run) == 0) continue;
    const std::int64_t fleet = std::max(config->fleet.generators, 1);
    const std::int64_t pool = std::min(fleet, kPoolSize);
    std::vector<std::string> topics;
    for (std::int64_t slot = 0; slot < pool; ++slot) {
      const std::int64_t g = pool_id(slot, pool, fleet);
      topics.push_back("powergrid/feeder" + std::to_string(g % 16) + "/gen" +
                       std::to_string(g));
    }
    const int grant = config->subscriber_qos >= 0
                          ? config->subscriber_qos
                          : (config->mixed_qos ? 2 : config->qos);
    mqtt::SubscriptionIndex index;
    const std::string client = "monitor";
    int session = 0;
    index.subscribe("powergrid/#", client, &session, grant);
    std::vector<mqtt::SubscriptionIndex::Match> scratch;
    const std::uint64_t count = sent_of(run);
    std::uint64_t matched = 0;
    ScopedSpan span(&log, "mqtt.match", "mqtt", parent);
    for (std::uint64_t i = 0; i < count; ++i) {
      index.match(topics[i % topics.size()], scratch);
      matched += scratch.size();
    }
    seconds += span.close();
    publishes += count;
    if (matched != count) {
      out.failures.push_back(run.spec->id + ": mqtt replay matched " +
                             std::to_string(matched) + " of " +
                             std::to_string(count));
    }
  }
  out.metrics["mqtt.match_ns"] = per_item_ns(seconds, publishes);
  out.self_seconds += seconds;
}

// --- rgma --------------------------------------------------------------------

/// CompiledPredicate::evaluate of the flat consumers' WHERE clauses (one
/// no-op filter, or one id partition per consumer service) over the run's
/// rows.
void replay_rgma(SpanLog& log, int parent, const std::vector<RunInput>& runs,
                 ReplayResult& out) {
  std::uint64_t rows_seen = 0;
  double seconds = 0;
  const rgma::TableDef table = core::generator_table("generators");
  for (const RunInput& run : runs) {
    const auto* config = config_of<core::RgmaConfig>(run);
    if (config == nullptr || sent_of(run) == 0) continue;
    const int fleet = std::max(config->fleet.generators, 1);
    // Mirrors the harness: distributed R-GMA has two consumer services,
    // each watching its share of generator ids.
    std::vector<std::string> wheres;
    if (config->distributed) {
      const int share = fleet / 2 + 1;
      for (int c = 0; c < 2; ++c) {
        wheres.push_back("id >= " + std::to_string(c * share) + " AND id < " +
                         std::to_string(c * share + share));
      }
    } else {
      wheres.push_back("id < 1000000");
    }
    std::vector<rgma::sql::CompiledPredicate> predicates;
    for (const std::string& where : wheres) {
      predicates.push_back(rgma::sql::CompiledPredicate::compile(
          rgma::sql::parse_predicate(where), table));
    }
    util::Rng rng(run.record->seed);
    const std::int64_t pool = std::min<std::int64_t>(fleet, kPoolSize);
    std::vector<std::vector<rgma::SqlValue>> rows;
    for (std::int64_t slot = 0; slot < pool; ++slot) {
      rows.push_back(core::make_generator_row(pool_id(slot, pool, fleet), 0, 0,
                                              rng));
    }
    const std::uint64_t count = sent_of(run);
    std::uint64_t selected = 0;
    ScopedSpan span(&log, "rgma.predicate", "rgma", parent);
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto& row = rows[i % rows.size()];
      for (const auto& predicate : predicates) {
        selected += predicate.selects(row) ? 1 : 0;
      }
    }
    seconds += span.close();
    rows_seen += count;
    if (selected != count) {
      out.failures.push_back(run.spec->id + ": rgma replay selected " +
                             std::to_string(selected) + " of " +
                             std::to_string(count));
    }
  }
  out.metrics["rgma.predicate_ns"] = per_item_ns(seconds, rows_seen);
  out.self_seconds += seconds;
}

// --- jms ---------------------------------------------------------------------

/// Selector::matches of the Narada subscribers' selectors ("id<10000" on a
/// single broker, "node=<host>" per generator host on a DBN, "id<1000000"
/// at a hier root) over the run's messages.
void replay_jms(SpanLog& log, int parent, const std::vector<RunInput>& runs,
                SimTime duration, ReplayResult& out) {
  std::uint64_t messages = 0;
  double seconds = 0;
  for (const RunInput& run : runs) {
    std::vector<std::string> selectors;
    std::vector<int> origin_hosts;
    std::int64_t fleet = 0;
    std::int64_t pad = 0;
    std::uint64_t count = 0;
    if (const auto* narada = config_of<core::NaradaConfig>(run)) {
      std::vector<int> free_hosts;
      for (int h = 0; h < cluster::HydraConfig{}.node_count; ++h) {
        if (std::find(narada->broker_hosts.begin(), narada->broker_hosts.end(),
                      h) == narada->broker_hosts.end()) {
          free_hosts.push_back(h);
        }
      }
      if (narada->broker_hosts.size() > 1) {
        origin_hosts = free_hosts;
        for (int h : origin_hosts) {
          selectors.push_back("node=" + std::to_string(h));
        }
      } else {
        origin_hosts.assign(free_hosts.begin() + 1, free_hosts.end());
        selectors.push_back("id<10000");
      }
      fleet = narada->fleet.generators;
      pad = narada->fleet.pad_bytes;
      count = sent_of(run);
    } else if (const auto* hier = config_of<core::HierConfig>(run);
               hier != nullptr && hier->backend == core::HierBackend::kNarada) {
      // The root's selector tests only the id, so the origin host is moot.
      origin_hosts = {0};
      selectors.push_back("id<1000000");
      fleet = hier->topology.expand().regionals;
      count = hier_frames(*hier, duration);
    }
    if (selectors.empty() || count == 0 || fleet <= 0) continue;
    std::vector<jms::Selector> parsed;
    for (const std::string& text : selectors) {
      parsed.push_back(jms::Selector::parse(text));
    }
    util::Rng rng(run.record->seed);
    const std::int64_t pool = std::min(fleet, kPoolSize);
    std::vector<jms::Message> pool_messages;
    for (std::int64_t slot = 0; slot < pool; ++slot) {
      const std::int64_t g = pool_id(slot, pool, fleet);
      pool_messages.push_back(core::make_generator_message(
          "powergrid/monitoring", g, 0,
          origin_hosts[static_cast<std::size_t>(g) % origin_hosts.size()], rng,
          pad));
    }
    std::uint64_t matched = 0;
    ScopedSpan span(&log, "jms.selector", "jms", parent);
    for (std::uint64_t i = 0; i < count; ++i) {
      const jms::Message& message = pool_messages[i % pool_messages.size()];
      for (const jms::Selector& selector : parsed) {
        matched += selector.matches(message) ? 1 : 0;
      }
    }
    seconds += span.close();
    messages += count;
    if (matched != count) {
      out.failures.push_back(run.spec->id + ": jms replay matched " +
                             std::to_string(matched) + " of " +
                             std::to_string(count));
    }
  }
  out.metrics["jms.selector_ns"] = per_item_ns(seconds, messages);
  out.self_seconds += seconds;
}

// --- hier --------------------------------------------------------------------

/// Fleet build, then window by window (simulated-time order): every edge's
/// EdgeAggregator::close_window, then the root's TreeConfig::for_each_sample
/// walk over every delivered segment of that window.
void replay_hier(SpanLog& log, int parent, const std::vector<RunInput>& runs,
                 SimTime duration, ReplayResult& out) {
  double build_s = 0;
  double close_s = 0;
  double walk_s = 0;
  std::int64_t fleet_bytes = 0;
  std::int64_t visits = 0;
  std::int64_t found = 0;
  for (const RunInput& run : runs) {
    const auto* config = config_of<core::HierConfig>(run);
    if (config == nullptr) continue;
    ScopedSpan replay(&log, "hier.replay", "hier", parent);
    hier::TreeConfig tree;
    std::unique_ptr<hier::FleetState> fleet;
    {
      ScopedSpan span(&log, "hier.fleet_build", "hier", replay.id());
      tree.spec = config->topology;
      tree.shape = config->topology.expand();
      fleet = std::make_unique<hier::FleetState>(config->topology,
                                                 run.record->seed);
      build_s += span.close();
    }
    fleet_bytes += fleet->bytes();
    tree.fleet = fleet.get();
    // Same epoch and window count as the harness.
    tree.epoch = units::seconds(1) +
                 config->creation_interval * tree.shape.regionals +
                 units::seconds(1);
    tree.windows =
        std::max<std::int64_t>(1, duration / config->topology.edge.window);

    std::vector<hier::EdgeAggregator> edges;
    edges.reserve(static_cast<std::size_t>(tree.shape.edges));
    for (std::int64_t e = 0; e < tree.shape.edges; ++e) {
      edges.emplace_back(tree, e);
    }
    std::vector<hier::EdgeFrame> frames(edges.size());
    std::uint64_t generated_total = 0;
    std::uint64_t collected_total = 0;
    for (std::int64_t w = 0; w < tree.windows; ++w) {
      ScopedSpan close(&log, "hier.close_window", "hier", replay.id());
      for (std::size_t e = 0; e < edges.size(); ++e) {
        std::int64_t generated = 0;
        frames[e] = edges[e].close_window(w, generated);
        generated_total += static_cast<std::uint64_t>(generated);
        found += generated;
        visits += tree.shape.generator_end(static_cast<std::int64_t>(e)) -
                  tree.shape.generator_begin(static_cast<std::int64_t>(e));
      }
      close_s += close.close();
      ScopedSpan walk(&log, "hier.root_walk", "hier", replay.id());
      for (const hier::EdgeFrame& frame : frames) {
        if (frame.collected == 0) continue;
        tree.for_each_sample(
            frame.edge, frame.window,
            [&](std::int64_t, std::int64_t, SimTime, bool lost) {
              if (!lost) ++collected_total;
            });
      }
      walk_s += walk.close();
    }
    out.self_seconds += replay.close();
    const auto& metrics = run.record->results.metrics;
    if (generated_total != metrics.sent() ||
        collected_total != metrics.received()) {
      out.failures.push_back(
          run.spec->id + ": hier replay generated/collected " +
          std::to_string(generated_total) + "/" +
          std::to_string(collected_total) + ", run sent/received " +
          std::to_string(metrics.sent()) + "/" +
          std::to_string(metrics.received()));
    }
  }
  out.self_seconds += build_s + close_s + walk_s;
  out.metrics["hier.fleet_build_s"] = build_s;
  out.metrics["hier.close_window_s"] = close_s;
  out.metrics["hier.root_walk_s"] = walk_s;
  out.metrics["hier.fleet_bytes"] = static_cast<double>(fleet_bytes);
  out.metrics["hier.visit_useful_ratio"] =
      visits > 0 ? static_cast<double>(found) / static_cast<double>(visits)
                 : 0.0;
}

// --- core --------------------------------------------------------------------

/// Metrics::record for every delivery the runs recorded.
void replay_metrics(SpanLog& log, int parent, const std::vector<RunInput>& runs,
                    ReplayResult& out) {
  std::uint64_t records = 0;
  for (const RunInput& run : runs) {
    records += run.record->results.metrics.rtt_ms().count();
  }
  double seconds = 0;
  if (records > 0) {
    core::Metrics metrics;
    ScopedSpan span(&log, "core.metrics_record", "core", parent);
    for (std::uint64_t i = 0; i < records; ++i) {
      const auto t = static_cast<SimTime>(i) * units::microseconds(500);
      metrics.record(t, t + units::microseconds(300),
                     t + units::milliseconds(4), t + units::milliseconds(5));
    }
    seconds = span.close();
    if (metrics.rtt_ms().count() != records) {
      out.failures.push_back("metrics replay recorded " +
                             std::to_string(metrics.rtt_ms().count()) +
                             " of " + std::to_string(records));
    }
  }
  out.metrics["core.metrics_record_ns"] = per_item_ns(seconds, records);
  out.self_seconds += seconds;
}

}  // namespace

ReplayResult replay_layers(SpanLog& log, int parent,
                           const std::vector<RunInput>& runs,
                           SimTime duration) {
  ReplayResult out;
  replay_sim(log, parent, runs, out);
  replay_net(log, parent, runs, duration, out);
  replay_mqtt(log, parent, runs, out);
  replay_rgma(log, parent, runs, out);
  replay_jms(log, parent, runs, duration, out);
  replay_hier(log, parent, runs, duration, out);
  replay_metrics(log, parent, runs, out);
  return out;
}

}  // namespace gridbench
