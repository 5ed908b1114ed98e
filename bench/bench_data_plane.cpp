// Data-plane hot-path microbenchmarks.
//
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
// items_per_second is deliveries / messages / edge windows
// (hier_close_window) or samples (/lossy).
// Run with the interleaved-median protocol quoted in BENCH_data_plane.json:
//   --benchmark_enable_random_interleaving=true --benchmark_repetitions=5
//   --benchmark_report_aggregates_only=true --benchmark_min_time=1
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "core/payloads.hpp"
#include "core/registry.hpp"
#include "hier/aggregator.hpp"
#include "jms/message.hpp"
#include "jms/selector.hpp"
#include "narada/frames.hpp"
#include "util/rng.hpp"

namespace {

using namespace gridmon;

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

BENCHMARK(BM_FanoutCopy)->Name("fanout/copy")->Arg(80)->Arg(400);
BENCHMARK(BM_FanoutRefcount)->Name("fanout/refcount")->Arg(80)->Arg(400);
BENCHMARK(BM_NaradaMessage)->Name("narada_message");
BENCHMARK(BM_HierCloseWindow)->Name("hier_close_window");
BENCHMARK(BM_HierCloseWindowLossy)->Name("hier_close_window/lossy");

BENCHMARK_MAIN();
