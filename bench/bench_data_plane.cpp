// Data-plane hot-path microbenchmarks: the three per-message costs this
// optimisation pass attacked, each measured against an embedded copy of the
// seed implementation so one binary reports both numbers.
//
//   predicate/*    R-GMA tuple filtering: the AST interpreter
//                  (evaluate_predicate, re-walked per tuple — the seed hot
//                  path) vs the CompiledPredicate flat program the producer
//                  and consumer services now cache per attachment.
//   topic_match/*  MQTT publish matching: the seed per-session linear
//                  topic_matches() scan (run twice per publish: fan-out
//                  count + delivery, as the broker did) vs two walks of the
//                  SubscriptionIndex trie. /wildcard is the experiment
//                  fleet shape (every session on 'powergrid/#'), /selective
//                  a content-partitioned fleet (one feeder filter each).
//   fanout/*       Narada broker local delivery: one Frame copy per
//                  subscriber (seed) vs one immutable ref-counted Frame
//                  shared across the fan-out.
//   narada_message One Narada publish's message work: build the generator
//                  reading, share it, read its wire size at the eight
//                  places a DBN publish does, and match "id<10000".
//   hier_close_window
//                  Hier edge synthesis: every edge of the hier/narada/1m
//                  topology (seed 1) closes 60 windows, 120,000 edge
//                  windows of 12 million samples per iteration. The
//                  lossless link every preset uses counts whole generator
//                  ranges, so the figure is time_per_window; /lossy (10 %
//                  generator->edge loss) draws each sample's loss, so its
//                  figure is time_per_sample.
//
// items_per_second is tuples filtered / publishes matched / deliveries /
// messages / edge windows (hier_close_window) or samples (/lossy).
// Run with the interleaved-median protocol quoted in BENCH_data_plane.json:
//   --benchmark_enable_random_interleaving=true --benchmark_repetitions=5
//   --benchmark_report_aggregates_only=true --benchmark_min_time=1
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/payloads.hpp"
#include "core/registry.hpp"
#include "hier/aggregator.hpp"
#include "jms/message.hpp"
#include "jms/selector.hpp"
#include "mqtt/sub_index.hpp"
#include "oracles/mqtt_topic.hpp"
#include "narada/frames.hpp"
#include "rgma/sql_compile.hpp"
#include "oracles/sql_eval.hpp"
#include "rgma/sql_parser.hpp"
#include "util/rng.hpp"

namespace {

using namespace gridmon;

// --- predicate evaluation ---------------------------------------------------

// The continuous-query shapes the campaigns run: the paper-style no-op
// filter, a content partition, and richer selector-style filters.
constexpr const char* kPredicates[] = {
    "id < 1000000",
    "id >= 40 AND id < 80",
    "site = 'site-13' AND loadpct > 50.0",
    "name LIKE 'gen-1%' AND voltage BETWEEN 225.0 AND 235.0",
};

struct PredicateWorkload {
  rgma::TableDef table = core::generator_table("grid_metrics");
  std::vector<std::vector<rgma::SqlValue>> rows;
  std::vector<rgma::sql::ExprPtr> exprs;
  std::vector<rgma::sql::CompiledPredicate> compiled;

  PredicateWorkload() {
    util::Rng rng(17);
    for (std::int64_t i = 0; i < 512; ++i) {
      rows.push_back(core::make_generator_row(i % 100, i, /*sent_at=*/0, rng));
    }
    for (const char* text : kPredicates) {
      exprs.push_back(rgma::sql::parse_predicate(text));
      compiled.push_back(
          rgma::sql::CompiledPredicate::compile(exprs.back(), table));
    }
  }
};

const PredicateWorkload& predicate_workload() {
  static const PredicateWorkload workload;
  return workload;
}

void BM_PredicateInterpreted(benchmark::State& state) {
  const auto& w = predicate_workload();
  const auto& expr = *w.exprs[static_cast<std::size_t>(state.range(0))];
  std::int64_t selected = 0;
  for (auto _ : state) {
    for (const auto& row : w.rows) {
      selected += rgma::sql::evaluate_predicate(expr, w.table, row) ==
                  rgma::sql::Tri::kTrue;
    }
  }
  benchmark::DoNotOptimize(selected);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.rows.size()));
}

void BM_PredicateCompiled(benchmark::State& state) {
  const auto& w = predicate_workload();
  const auto& program = w.compiled[static_cast<std::size_t>(state.range(0))];
  std::int64_t selected = 0;
  for (auto _ : state) {
    for (const auto& row : w.rows) {
      selected += program.evaluate(row) == rgma::sql::Tri::kTrue;
    }
  }
  benchmark::DoNotOptimize(selected);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.rows.size()));
}

// --- MQTT topic matching ----------------------------------------------------

struct LinearSession {
  std::vector<std::pair<std::string, int>> subscriptions;
};

struct MatchWorkload {
  // Seed shape: the broker's client-id-keyed session map, scanned linearly.
  std::map<std::string, LinearSession> sessions;
  mqtt::SubscriptionIndex index;
  std::vector<std::string> topics;

  MatchWorkload(int session_count, bool selective) {
    for (int i = 0; i < session_count; ++i) {
      const std::string client = "mon" + std::to_string(100000 + i);
      const std::string filter =
          selective ? "powergrid/feeder" + std::to_string(i % 16) + "/+"
                    : "powergrid/#";
      auto& session = sessions[client];
      session.subscriptions.emplace_back(filter, 1);
      index.subscribe(filter, sessions.find(client)->first, &session, 1);
    }
    for (int t = 0; t < 64; ++t) {
      topics.push_back("powergrid/feeder" + std::to_string(t % 16) + "/gen" +
                       std::to_string(t));
    }
  }
};

/// The seed publish path: one pass to count the fan-out for the service
/// demand, one pass to deliver at the first matching filter's grant.
std::int64_t linear_publish(const MatchWorkload& w, const std::string& topic) {
  int fanout = 0;
  for (const auto& [client, session] : w.sessions) {
    for (const auto& [filter, qos] : session.subscriptions) {
      if (mqtt::topic_matches(filter, topic)) {
        ++fanout;
        break;
      }
    }
  }
  std::int64_t delivered = 0;
  for (const auto& [client, session] : w.sessions) {
    for (const auto& [filter, qos] : session.subscriptions) {
      if (mqtt::topic_matches(filter, topic)) {
        delivered += qos;
        break;
      }
    }
  }
  return fanout + delivered;
}

/// The trie publish path: same two walks (count, then re-match at dispatch
/// time after the service delay) the broker performs.
std::int64_t trie_publish(const MatchWorkload& w, const std::string& topic,
                          std::vector<mqtt::SubscriptionIndex::Match>& scratch) {
  w.index.match(topic, scratch);
  const auto fanout = static_cast<std::int64_t>(scratch.size());
  w.index.match(topic, scratch);
  std::int64_t delivered = 0;
  for (const auto& m : scratch) delivered += m.qos;
  return fanout + delivered;
}

void BM_TopicMatchLinear(benchmark::State& state) {
  const MatchWorkload w(static_cast<int>(state.range(0)), state.range(1) != 0);
  std::int64_t sink = 0;
  std::size_t t = 0;
  for (auto _ : state) {
    sink += linear_publish(w, w.topics[t]);
    t = (t + 1) % w.topics.size();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}

void BM_TopicMatchTrie(benchmark::State& state) {
  const MatchWorkload w(static_cast<int>(state.range(0)), state.range(1) != 0);
  std::vector<mqtt::SubscriptionIndex::Match> scratch;
  std::int64_t sink = 0;
  std::size_t t = 0;
  for (auto _ : state) {
    sink += trie_publish(w, w.topics[t], scratch);
    t = (t + 1) % w.topics.size();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}

// --- Narada fan-out ---------------------------------------------------------

struct FanoutWorkload {
  narada::FramePtr prototype;

  FanoutWorkload() {
    util::Rng rng(23);
    auto frame = std::make_shared<narada::Frame>();
    frame->kind = narada::FrameKind::kDeliver;
    frame->topic = "powergrid/gen7";
    frame->message = jms::share(
        core::make_generator_message("powergrid/gen7", 7, 1, 0, rng));
    prototype = std::move(frame);
  }
};

/// Seed delivery: a fresh Frame (topic string + headers) per subscriber,
/// each re-measured for the wire.
void BM_FanoutCopy(benchmark::State& state) {
  const FanoutWorkload w;
  const int subscribers = static_cast<int>(state.range(0));
  std::int64_t bytes = 0;
  for (auto _ : state) {
    for (int s = 0; s < subscribers; ++s) {
      auto copy = std::make_shared<const narada::Frame>(*w.prototype);
      bytes += narada::frame_wire_size(*copy);
      benchmark::DoNotOptimize(copy);
    }
  }
  benchmark::DoNotOptimize(bytes);
  state.SetItemsProcessed(state.iterations() * subscribers);
}

/// Zero-copy delivery: one immutable frame, measured once, ref-counted
/// across the fan-out.
void BM_FanoutRefcount(benchmark::State& state) {
  const FanoutWorkload w;
  const int subscribers = static_cast<int>(state.range(0));
  std::int64_t bytes = 0;
  for (auto _ : state) {
    auto shared = std::make_shared<const narada::Frame>(*w.prototype);
    const std::int64_t wire = narada::frame_wire_size(*shared);
    for (int s = 0; s < subscribers; ++s) {
      narada::FramePtr handoff = shared;
      bytes += wire;
      benchmark::DoNotOptimize(handoff);
    }
  }
  benchmark::DoNotOptimize(bytes);
  state.SetItemsProcessed(state.iterations() * subscribers);
}

// --- Narada message ---------------------------------------------------------

void BM_NaradaMessage(benchmark::State& state) {
  util::Rng rng(29);
  const jms::Selector selector = jms::Selector::parse("id<10000");
  std::int64_t sequence = 0;
  std::int64_t bytes = 0;
  std::int64_t matched = 0;
  for (auto _ : state) {
    const jms::MessagePtr message = jms::share(core::make_generator_message(
        "powergrid/monitoring", 7, sequence++, 0, rng));
    for (int hop = 0; hop < 8; ++hop) bytes += message->wire_size();
    if (selector.matches(*message)) ++matched;
  }
  benchmark::DoNotOptimize(bytes);
  benchmark::DoNotOptimize(matched);
  state.SetItemsProcessed(state.iterations());
}

// --- hier edge windows -----------------------------------------------------

struct ClosedWindows {
  std::int64_t windows = 0;
  std::int64_t samples = 0;
};

/// Close 60 windows on every edge of the hier/narada/1m topology (seed 1)
/// per iteration, with `loss` on the generator->edge link.
ClosedWindows close_windows(benchmark::State& state, double loss) {
  hier::TopologySpec topology =
      std::get<core::HierConfig>(
          core::builtin_registry().find("hier/narada/1m")->config)
          .topology;
  topology.edge_loss = loss;
  const hier::FleetState fleet(topology, 1);
  hier::TreeConfig tree;
  tree.spec = topology;
  tree.shape = topology.expand();
  tree.fleet = &fleet;
  tree.epoch = units::seconds(1);
  tree.windows = 60;
  std::vector<hier::EdgeAggregator> edges;
  for (std::int64_t e = 0; e < tree.shape.edges; ++e) {
    edges.emplace_back(tree, e);
  }
  ClosedWindows closed;
  for (auto _ : state) {
    for (std::int64_t w = 0; w < tree.windows; ++w) {
      for (const hier::EdgeAggregator& edge : edges) {
        std::int64_t generated = 0;
        const hier::EdgeFrame frame = edge.close_window(w, generated);
        benchmark::DoNotOptimize(frame);
        closed.samples += generated;
        ++closed.windows;
      }
    }
  }
  return closed;
}

/// Counts per second, inverted: seconds per count (shown as ns).
benchmark::Counter time_per(std::int64_t count) {
  return benchmark::Counter(
      static_cast<double>(count),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_HierCloseWindow(benchmark::State& state) {
  const ClosedWindows closed = close_windows(state, 0.0);
  state.SetItemsProcessed(closed.windows);
  state.counters["time_per_window"] = time_per(closed.windows);
}

void BM_HierCloseWindowLossy(benchmark::State& state) {
  const ClosedWindows closed = close_windows(state, 0.1);
  state.SetItemsProcessed(closed.samples);
  state.counters["time_per_sample"] = time_per(closed.samples);
}

}  // namespace

BENCHMARK(BM_PredicateInterpreted)
    ->Name("predicate/interpreted")
    ->DenseRange(0, 3);
BENCHMARK(BM_PredicateCompiled)->Name("predicate/compiled")->DenseRange(0, 3);
BENCHMARK(BM_TopicMatchLinear)
    ->Name("topic_match/linear")
    ->ArgNames({"sessions", "selective"})
    ->Args({400, 0})
    ->Args({4000, 0})
    ->Args({400, 1})
    ->Args({4000, 1});
BENCHMARK(BM_TopicMatchTrie)
    ->Name("topic_match/trie")
    ->ArgNames({"sessions", "selective"})
    ->Args({400, 0})
    ->Args({4000, 0})
    ->Args({400, 1})
    ->Args({4000, 1});
BENCHMARK(BM_FanoutCopy)->Name("fanout/copy")->Arg(80)->Arg(400);
BENCHMARK(BM_FanoutRefcount)->Name("fanout/refcount")->Arg(80)->Arg(400);
BENCHMARK(BM_NaradaMessage)->Name("narada_message");
BENCHMARK(BM_HierCloseWindow)->Name("hier_close_window");
BENCHMARK(BM_HierCloseWindowLossy)->Name("hier_close_window/lossy");

BENCHMARK_MAIN();
