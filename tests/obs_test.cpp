// src/obs unit + integration tests: the histogram sketch's layout and
// error bound, Timeline sampling, hop spans that add up to the PT aggregate
// through a real Narada/R-GMA run, the exporters, and the "observability
// never perturbs the model" invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>

#include "core/experiment.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "obs/sketch.hpp"
#include "obs/timeline.hpp"
#include "sim/simulation.hpp"

namespace gridmon::obs {
namespace {

// --- HistogramSketch ---------------------------------------------------------

TEST(Sketch, BucketBoundaries) {
  HistogramSketch sketch(0.01);
  const double gamma = sketch.gamma();
  EXPECT_NEAR(gamma, 1.01 / 0.99, 1e-12);

  // Every tracked value lands in a bucket whose (lower, upper] brackets it.
  for (double value : {1e-6, 1e-3, 0.5, 1.0, 42.0, 1e6, 1e8}) {
    const int index = sketch.bucket_index(value);
    ASSERT_GE(index, 0) << value;
    EXPECT_LT(sketch.bucket_lower(index), value * (1 + 1e-12)) << value;
    EXPECT_GE(sketch.bucket_upper(index) * (1 + 1e-12), value) << value;
    // The representative value is inside the bucket too.
    EXPECT_GE(sketch.bucket_value(index), sketch.bucket_lower(index));
    EXPECT_LE(sketch.bucket_value(index),
              sketch.bucket_upper(index) * (1 + 1e-12));
  }

  // Sub-range values (zero, negatives) fall into the dedicated low bucket.
  EXPECT_EQ(sketch.bucket_index(0.0), -1);
  EXPECT_EQ(sketch.bucket_index(-5.0), -1);
  EXPECT_EQ(sketch.bucket_index(HistogramSketch::kMinTracked / 2), -1);

  // Values past the top clamp into the last tracked bucket.
  const int top = sketch.bucket_index(HistogramSketch::kMaxTracked * 10);
  EXPECT_EQ(top, sketch.bucket_count() - 1);

  // Adjacent buckets tile: upper(i) == lower(i+1).
  const int mid = sketch.bucket_index(1.0);
  EXPECT_DOUBLE_EQ(sketch.bucket_upper(mid), sketch.bucket_lower(mid + 1));
}

TEST(Sketch, QuantileErrorBound) {
  const double alpha = 0.01;
  HistogramSketch sketch(alpha);
  // A wide deterministic spread: 1..10000 in a non-monotone order.
  for (int i = 0; i < 10000; ++i) {
    sketch.record(static_cast<double>((i * 7919) % 10000) + 1.0);
  }
  ASSERT_EQ(sketch.count(), 10000u);
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double estimate = sketch.quantile(q);
    // True quantile of the multiset {1..10000}.
    const double exact =
        std::floor(q * (10000 - 1) + 0.5) + 1.0;
    EXPECT_NEAR(estimate, exact, alpha * exact + 1e-9)
        << "q=" << q;
  }
  EXPECT_NEAR(sketch.min(), 1.0, 1e-12);
  EXPECT_NEAR(sketch.max(), 10000.0, 1e-12);
}

TEST(Sketch, EmptyAndResetSketchesReadZero) {
  HistogramSketch sketch(0.01);
  EXPECT_TRUE(sketch.empty());
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(sketch.min(), 0.0);
  EXPECT_DOUBLE_EQ(sketch.max(), 0.0);

  sketch.record(5.0);
  EXPECT_EQ(sketch.count(), 1u);
  EXPECT_NEAR(sketch.quantile(0.5), 5.0, 0.01 * 5.0);

  sketch.reset();
  EXPECT_TRUE(sketch.empty());
  EXPECT_DOUBLE_EQ(sketch.sum(), 0.0);
}

TEST(Sketch, LowBucketValuesReportZero) {
  HistogramSketch sketch(0.01);
  sketch.record(0.0);
  sketch.record(-1.0);
  sketch.record(10.0);
  EXPECT_EQ(sketch.count(), 3u);
  // Rank 0 and 1 sit in the low bucket (reported 0), rank 2 near 10.
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), 0.0);
  EXPECT_NEAR(sketch.quantile(1.0), 10.0, 0.1);
}

// --- Timeline ----------------------------------------------------------------

TEST(Timeline, SamplesSeriesInCreationOrder) {
  Timeline timeline;
  Gauge& sent = timeline.gauge("sent");
  Gauge& depth = timeline.gauge("depth");
  HistogramSketch& rtt = timeline.histogram("rtt_ms");

  ASSERT_EQ(timeline.columns().size(), 6u);
  EXPECT_EQ(timeline.columns()[0], "sent");
  EXPECT_EQ(timeline.columns()[1], "depth");
  EXPECT_EQ(timeline.columns()[2], "rtt_ms.count");
  EXPECT_EQ(timeline.columns()[3], "rtt_ms.p50");

  sent.set(3);
  depth.set(7.5);
  rtt.record(10.0);
  rtt.record(20.0);
  timeline.sample(units::seconds(1));

  sent.set(5);
  timeline.sample(units::seconds(2));

  ASSERT_EQ(timeline.samples().size(), 2u);
  const Sample& first = timeline.samples()[0];
  EXPECT_EQ(first.at, units::seconds(1));
  EXPECT_DOUBLE_EQ(first.values[0], 3.0);   // cumulative gauge
  EXPECT_DOUBLE_EQ(first.values[1], 7.5);
  EXPECT_DOUBLE_EQ(first.values[2], 2.0);   // window count
  const Sample& second = timeline.samples()[1];
  EXPECT_DOUBLE_EQ(second.values[0], 5.0);  // holds its last value
  EXPECT_DOUBLE_EQ(second.values[2], 0.0);  // window reset after sample

  // Lookup-or-create returns the same series.
  EXPECT_EQ(&timeline.gauge("sent"), &sent);
  EXPECT_EQ(timeline.columns().size(), 6u);
}

// --- Recorder spans ----------------------------------------------------------

TEST(Recorder, DeterministicSampling) {
  sim::Simulation sim(1);
  Options options;
  options.enabled = true;
  options.span_sample_every = 4;
  Recorder recorder(sim, options);
  int sampled = 0;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    if (recorder.want_trace(k)) ++sampled;
  }
  EXPECT_EQ(sampled, 250);

  Options none = options;
  none.span_sample_every = 0;
  Recorder off(sim, none);
  EXPECT_FALSE(off.want_trace(0));

  Options all = options;
  all.span_sample_every = 1;
  Recorder every(sim, all);
  EXPECT_TRUE(every.want_trace(12345));
}

TEST(Recorder, MarksTelescopeThroughCompletion) {
  sim::Simulation sim(1);
  Options options;
  options.enabled = true;
  options.span_sample_every = 1;
  Recorder recorder(sim, options);

  const TraceKey key = key_of("ID:msg-1");
  recorder.mark_at(key, "pub", units::milliseconds(1));
  recorder.mark_at(key, "sent", units::milliseconds(2));
  // Out-of-order arrival: completion sorts by time.
  recorder.mark_at(key, "recv", units::milliseconds(9));
  recorder.mark_at(key, "wire", units::milliseconds(4));
  recorder.complete(key);

  // A second trace marked but never completed counts as dropped.
  recorder.mark_at(key_of("ID:msg-2"), "pub", units::milliseconds(3));

  auto report = recorder.finish(units::seconds(1));
  ASSERT_EQ(report->traces.size(), 1u);
  EXPECT_EQ(report->traces_dropped, 1u);
  const CompletedTrace& trace = report->traces[0];
  ASSERT_EQ(trace.marks.size(), 4u);
  for (std::size_t i = 1; i < trace.marks.size(); ++i) {
    EXPECT_GE(trace.marks[i].at, trace.marks[i - 1].at);
  }
  EXPECT_EQ(report->stage_names[trace.marks[2].stage], "wire");

  // Per-stage durations telescope to the whole span.
  SimTime total = 0;
  for (std::size_t i = 1; i < trace.marks.size(); ++i) {
    total += trace.marks[i].at - trace.marks[i - 1].at;
  }
  EXPECT_EQ(total, trace.marks.back().at - trace.marks.front().at);
}

// --- Experiment integration --------------------------------------------------

core::NaradaConfig small_narada() {
  core::NaradaConfig config;
  config.fleet.generators = 20;
  config.duration = units::minutes(2);
  config.seed = 7;
  return config;
}

// The integration/exporter tests need the instrumentation compiled in; a
// GRIDMON_OBS=OFF build still runs the sketch/timeline/recorder units.
#define GRIDMON_REQUIRE_OBS() \
  if (!kEnabled) GTEST_SKIP() << "built with GRIDMON_OBS=OFF"

// The traced share of the paper's PT aggregate: the sum of (recv - sent)
// over the traces that carry both marks, and how many of those traces carry
// a `stage` mark in between.
struct TracedPt {
  std::uint64_t traces = 0;
  double sum_ms = 0.0;
  std::uint64_t with_stage = 0;
};

TracedPt traced_pt(const Report& report, std::string_view stage = {}) {
  auto id_of = [&](std::string_view name) {
    return std::find(report.stage_names.begin(), report.stage_names.end(),
                     name) -
           report.stage_names.begin();
  };
  const auto sent = id_of("sent");
  const auto recv = id_of("recv");
  const auto inner = id_of(stage);
  TracedPt pt;
  for (const CompletedTrace& trace : report.traces) {
    const Mark* sent_mark = nullptr;
    bool inner_seen = false;
    for (const Mark& mark : trace.marks) {  // time-sorted
      if (sent_mark == nullptr) {
        if (mark.stage == sent) sent_mark = &mark;
      } else if (mark.stage == recv) {
        ++pt.traces;
        pt.sum_ms += static_cast<double>(mark.at - sent_mark->at) / 1e6;
        if (inner_seen) ++pt.with_stage;
        break;
      } else if (mark.stage == inner) {
        inner_seen = true;
      }
    }
  }
  return pt;
}

double metrics_pt_sum_ms(const core::Results& results) {
  return results.metrics.pt_ms().mean() *
         static_cast<double>(results.metrics.pt_ms().count());
}

TEST(ObsIntegration, NaradaSpansTelescopeToPtAggregate) {
  GRIDMON_REQUIRE_OBS();
  core::NaradaConfig config = small_narada();
  config.obs.enabled = true;
  config.obs.span_sample_every = 1;  // trace everything
  const core::Results results = core::run_narada_experiment(config);
  ASSERT_TRUE(results.obs);
  ASSERT_GT(results.obs->traces.size(), 0u);

  // With 1-in-1 sampling the traced PT IS the paper's PT aggregate
  // (single broker: one delivery per message)...
  const TracedPt pt = traced_pt(*results.obs, "route_fanout");
  EXPECT_EQ(pt.traces, results.obs->traces.size());
  EXPECT_EQ(results.obs->traces.size(), results.metrics.received());
  EXPECT_NEAR(pt.sum_ms, metrics_pt_sum_ms(results),
              1e-6 * std::max(1.0, metrics_pt_sum_ms(results)));
  // ...and the broker's routing stage shows up inside it.
  EXPECT_GT(pt.with_stage, 0u);
}

TEST(ObsIntegration, RgmaSpansTelescopeToPtAggregate) {
  GRIDMON_REQUIRE_OBS();
  core::RgmaConfig config;
  config.fleet.generators = 10;
  config.duration = units::minutes(2);
  config.seed = 3;
  config.obs.enabled = true;
  config.obs.span_sample_every = 1;
  const core::Results results = core::run_rgma_experiment(config);
  ASSERT_TRUE(results.obs);
  ASSERT_GT(results.obs->traces.size(), 0u);

  const TracedPt pt = traced_pt(*results.obs);
  EXPECT_EQ(results.obs->traces.size(), results.metrics.received());
  EXPECT_NEAR(pt.sum_ms, metrics_pt_sum_ms(results),
              1e-6 * std::max(1.0, metrics_pt_sum_ms(results)));
}

TEST(ObsIntegration, ObservabilityNeverPerturbsTheModel) {
  GRIDMON_REQUIRE_OBS();
  const core::Results off = core::run_narada_experiment(small_narada());

  core::NaradaConfig on_config = small_narada();
  on_config.obs.enabled = true;
  on_config.obs.span_sample_every = 8;
  const core::Results on = core::run_narada_experiment(on_config);

  // Every model-visible number is bit-identical; only the kernel's own
  // event count moves (the sampling timer's events).
  EXPECT_EQ(off.metrics.sent(), on.metrics.sent());
  EXPECT_EQ(off.metrics.received(), on.metrics.received());
  EXPECT_DOUBLE_EQ(off.metrics.rtt_mean_ms(), on.metrics.rtt_mean_ms());
  EXPECT_DOUBLE_EQ(off.metrics.rtt_stddev_ms(), on.metrics.rtt_stddev_ms());
  EXPECT_DOUBLE_EQ(off.metrics.pt_ms().mean(), on.metrics.pt_ms().mean());
  EXPECT_EQ(off.wire_bytes, on.wire_bytes);
  EXPECT_EQ(off.events_forwarded, on.events_forwarded);
  EXPECT_DOUBLE_EQ(off.servers.cpu_idle_pct, on.servers.cpu_idle_pct);
  EXPECT_FALSE(off.obs);
  ASSERT_TRUE(on.obs);
  EXPECT_GT(on.obs->samples.size(), 0u);
}

// --- Exporters ---------------------------------------------------------------

TEST(Exporters, ChromeTraceJsonShape) {
  GRIDMON_REQUIRE_OBS();
  core::NaradaConfig config = small_narada();
  config.obs.enabled = true;
  config.obs.span_sample_every = 4;
  core::Results results = core::run_narada_experiment(config);
  ASSERT_TRUE(results.obs);

  const std::string json = chrome_trace_json(*results.obs);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"chaos\""), std::string::npos);  // track exists
  EXPECT_NE(json.find("\"cat\":\"hop\""), std::string::npos);
  EXPECT_NE(json.find("\"route_fanout\""), std::string::npos);
  // Balanced brackets at the ends.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

TEST(Exporters, SeriesCsvShape) {
  GRIDMON_REQUIRE_OBS();
  core::NaradaConfig config = small_narada();
  config.obs.enabled = true;
  config.obs.span_sample_every = 0;
  core::Results results = core::run_narada_experiment(config);
  ASSERT_TRUE(results.obs);

  const std::string csv = series_csv(*results.obs);
  EXPECT_EQ(csv.rfind("t_ms,sent,received,rtt_ms.count", 0), 0u);
  // One line per sample plus the header.
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, results.obs->samples.size() + 1);

  const std::string json = series_json(*results.obs);
  EXPECT_NE(json.find("\"columns\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\""), std::string::npos);
  EXPECT_NE(json.find("\"chaos\""), std::string::npos);
}

TEST(Exporters, LossSeriesFromCumulativeCounters) {
  Report report;
  report.columns = {"sent", "received"};
  report.samples.push_back({units::seconds(1), {0.0, 0.0}});
  report.samples.push_back({units::seconds(2), {100.0, 100.0}});  // 0% loss
  report.samples.push_back({units::seconds(3), {200.0, 150.0}});  // 50%
  report.samples.push_back({units::seconds(4), {200.0, 180.0}});  // no sends
  const LossSeries loss = loss_percent_series(report);
  ASSERT_EQ(loss.loss_pct.size(), 3u);
  EXPECT_DOUBLE_EQ(loss.loss_pct[0], 0.0);
  EXPECT_DOUBLE_EQ(loss.loss_pct[1], 50.0);
  // Catch-up deliveries with no sends clamp to 0, not negative.
  EXPECT_DOUBLE_EQ(loss.loss_pct[2], 0.0);
}

}  // namespace
}  // namespace gridmon::obs
