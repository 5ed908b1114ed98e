// Observability overhead: the cost of src/obs instrumentation.
//
// Three configurations of the same experiment workload are timed:
//
//   off      — obs compiled in (GRIDMON_OBS=ON) but disabled at runtime.
//              The instrumentation cost is one thread_local load + null
//              check per mark site; this is the default for every other
//              bench and test.
//   series   — runtime-enabled timeline sampling, no hop spans.
//   spans    — sampling plus hop spans at the default 1-in-16 rate.
//
// The acceptance budget (BENCH_obs.json) is <2% median slowdown for `off`
// versus a GRIDMON_OBS=OFF build, where the helpers compile to nothing;
// within one build this bench reports off vs series vs spans directly.
// Results fields other than kernel event counts are asserted identical
// across the three runs — the sampler must not perturb the model.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "core/experiment.hpp"

namespace {

using namespace gridmon;

// The paper's 30-minute test, the setting BENCH_obs.json records.
constexpr int kMinutes = 30;

core::NaradaConfig workload() {
  core::NaradaConfig config;
  config.fleet.generators = 400;
  config.duration = units::minutes(kMinutes);
  config.seed = 1;
  return config;
}

double time_run(const core::NaradaConfig& config, core::Results* out) {
  const auto begin = std::chrono::steady_clock::now();
  core::Results results = core::run_narada_experiment(config);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - begin;
  if (out != nullptr) *out = std::move(results);
  return elapsed.count();
}

void bench_variant(benchmark::State& state, const core::NaradaConfig& config,
                   core::Results* out) {
  for (auto _ : state) {
    state.SetIterationTime(time_run(config, out));
  }
}

}  // namespace

int main(int argc, char** argv) {
  core::Results off_results;
  core::Results series_results;
  core::Results spans_results;

  core::NaradaConfig off = workload();

  core::NaradaConfig series = workload();
  series.obs.enabled = true;
  series.obs.span_sample_every = 0;

  core::NaradaConfig spans = workload();
  spans.obs.enabled = true;
  spans.obs.span_sample_every = 16;

  benchmark::RegisterBenchmark(
      "obs/off", [&](benchmark::State& s) { bench_variant(s, off, &off_results); })
      ->UseManualTime()
      ->Iterations(3)
      ->Unit(benchmark::kSecond);
  benchmark::RegisterBenchmark(
      "obs/series",
      [&](benchmark::State& s) { bench_variant(s, series, &series_results); })
      ->UseManualTime()
      ->Iterations(3)
      ->Unit(benchmark::kSecond);
  benchmark::RegisterBenchmark(
      "obs/spans",
      [&](benchmark::State& s) { bench_variant(s, spans, &spans_results); })
      ->UseManualTime()
      ->Iterations(3)
      ->Unit(benchmark::kSecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nObs overhead — off vs series vs hop spans (virtual duration "
              "%d min, seed 1)\n",
              kMinutes);

  // The sampler reads state without drawing model RNG: everything,
  // *including* kernel event counts, must match bit-for-bit. The sampling
  // ticks are observer events (sim::EventKind::kObserver), which
  // KernelStats leaves out, so an obs-enabled run reports the same event
  // count as a disabled one.
  const bool metrics_identical =
      off_results.metrics.sent() == series_results.metrics.sent() &&
      off_results.metrics.received() == series_results.metrics.received() &&
      off_results.metrics.rtt_mean_ms() == series_results.metrics.rtt_mean_ms() &&
      series_results.metrics.received() == spans_results.metrics.received() &&
      series_results.metrics.rtt_mean_ms() == spans_results.metrics.rtt_mean_ms();
  const bool kernel_identical =
      off_results.kernel.events_executed ==
          series_results.kernel.events_executed &&
      series_results.kernel.events_executed ==
          spans_results.kernel.events_executed;
  std::printf("metrics identical across variants: %s\n",
              metrics_identical ? "yes" : "NO (sampler perturbed the model!)");
  std::printf("kernel events: off=%llu series=%llu spans=%llu -> %s\n",
              static_cast<unsigned long long>(off_results.kernel.events_executed),
              static_cast<unsigned long long>(
                  series_results.kernel.events_executed),
              static_cast<unsigned long long>(
                  spans_results.kernel.events_executed),
              kernel_identical
                  ? "identical (sampler ticks discounted)"
                  : "NOT IDENTICAL (discount accounting broken!)");
  if (series_results.obs) {
    std::printf("series: %zu samples x %zu columns, %zu traces\n",
                series_results.obs->samples.size(),
                series_results.obs->columns.size(),
                series_results.obs->traces.size());
  }
  if (spans_results.obs) {
    std::printf("spans:  %zu completed traces (1-in-%u sampling)\n",
                spans_results.obs->traces.size(),
                static_cast<unsigned>(spans_results.obs->options
                                          .span_sample_every));
  }
  return metrics_identical && kernel_identical ? 0 : 1;
}
