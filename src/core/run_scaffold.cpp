#include "core/run_scaffold.hpp"

#include <deque>

#include "cluster/vmstat.hpp"

namespace gridmon::core {

RunScaffold::RunScaffold(const RunConfig& config, FaultPlan faults,
                         std::int64_t generators, cluster::HydraConfig hydra)
    : hydra_((hydra.seed = config.seed, hydra)),
      config_(config),
      faults_(std::move(faults)) {
  results_.metrics.set_deadline(units::seconds(5));
  results_.generators = generators;
}

void RunScaffold::install_obs() {
  // Thread-local, so middleware marks route here; sampling only reads state.
  if (obs::kEnabled && config_.obs.enabled) {
    recorder_ = std::make_unique<obs::Recorder>(sim(), config_.obs);
    memprof_ = std::make_unique<obs::MemProfile>();
  }
  scoped_mem_.emplace(memprof_.get());
  scoped_recorder_.emplace(recorder_.get());
}

void RunScaffold::refuse(std::uint64_t n) {
  metrics().count_refused_connection(n);
  if (injector_ && in_fault_window(injector_->windows(), sim().now())) {
    refused_in_faults_ += n;
  }
}

void RunScaffold::open(std::string key, InFlight entry) {
  ++opened_;
  if (obs::Recorder* r = spans()) r->mark(entry.trace, "pub");
  in_flight_.emplace(std::move(key), std::move(entry));
}

void RunScaffold::sent(const std::string& key, obs::TraceKey trace,
                       SimTime after) {
  const auto it = in_flight_.find(key);
  if (it != in_flight_.end()) it->second.after_sending = after;
  if (obs::Recorder* r = spans()) r->mark_at(trace, "sent", after);
}

void RunScaffold::inserted(const std::string& key, obs::TraceKey trace,
                           bool ok, SimTime after) {
  const auto it = in_flight_.find(key);
  if (it == in_flight_.end()) return;
  if (ok) return sent(key, trace, after);
  tracker_.classify_loss(it->second.before_sending);
  in_flight_.erase(it);
}

bool RunScaffold::deliver(const std::string& key, SimTime arrived_at,
                          std::string_view stage) {
  const auto it = in_flight_.find(key);
  if (it == in_flight_.end()) return false;
  const InFlight& record = it->second;
  const SimTime now = sim().now();
  Metrics& metrics = results_.metrics;
  tracker_.on_delivery(now);
  metrics.record(record.before_sending, record.after_sending, arrived_at, now);
  if (rtt_series_ != nullptr) {
    rtt_series_->record(units::to_millis(now - record.before_sending));
  }
  if (obs::Recorder* r = spans()) {
    r->mark_at(record.trace, stage, arrived_at);
    r->mark(record.trace, "done");
    r->complete(record.trace);
  }
  if (tree_ != nullptr) {
    // A hier frame: record() covered its oldest sample (RTT is honest
    // about staleness) and counted it late if it was; the frame's other
    // samples are counted here so the received/late counters stay
    // per-sample.
    std::int64_t collected = 0;
    for (const hier::EdgeFrame& segment : record.segments) {
      collected += segment.collected;
    }
    if (collected > 0) {
      metrics.count_received(static_cast<std::uint64_t>(collected - 1));
    }
    // No sample was sent before the oldest, so only a frame whose oldest
    // sample missed the deadline can carry late ones. Only those segments
    // are re-walked from the flyweight state.
    const SimTime deadline = metrics.deadline();
    if (deadline > 0 && now - record.before_sending > deadline) {
      std::uint64_t late = 0;
      for (const hier::EdgeFrame& segment : record.segments) {
        if (now - segment.oldest_send <= deadline) continue;
        tree_->for_each_sample(
            segment.edge, segment.window,
            [&](std::int64_t, std::int64_t, SimTime send, bool lost) {
              if (!lost && now - send > deadline) ++late;
            });
      }
      // The oldest sample is among them and record() counted it.
      if (late > 1) metrics.count_delivered_late(late - 1);
    }
  }
  ++delivered_;
  in_flight_.erase(it);
  return true;
}

void RunScaffold::observe(Series series) {
  // Fixed column order (creation order is export order): the base gauges,
  // the port's counters, memory after them so the pinned series prefix
  // ("t_ms,sent,received,...") never moves, replication columns last.
  obs::Timeline& timeline = recorder_->timeline();
  std::vector<std::pair<obs::Gauge*, std::function<double()>>> gauges;
  auto add = [&](const std::string& name, std::function<double()> read) {
    gauges.emplace_back(&timeline.gauge(name), std::move(read));
  };
  Metrics& metrics = results_.metrics;
  sim::Simulation& sim = hydra_.sim();
  net::Lan& lan = hydra_.lan();
  add("sent", [&metrics] { return metrics.sent(); });
  add("received", [&metrics] { return metrics.received(); });
  rtt_series_ = &timeline.histogram("rtt_ms");
  add("kernel_events", [&sim] { return sim.kernel_stats().events_executed; });
  add("kernel_queue_depth", [&sim] { return sim.queue_size(); });
  add("lan_in_flight", [&lan] { return lan.datagrams_in_flight(); });
  add("lan_dropped", [&lan] { return lan.datagrams_dropped(); });
  for (auto& [name, read] : series.counters) add(name, std::move(read));
  obs::MemProfile* prof = memprof_.get();
  auto add_mem = [&](obs::MemCategory category) {
    add(std::string(obs::gauge_name(category)),
        [prof, category] { return prof->live(category); });
  };
  if (prof != nullptr) {
    for (obs::MemCategory category : series.memory) add_mem(category);
    add("mem_total", [prof] { return prof->live_total(); });
  }
  for (auto& [name, read] : series.replay) add(name, std::move(read));
  if (prof != nullptr && !series.replay.empty()) {
    add_mem(obs::MemCategory::kHistory);
  }
  recorder_->set_sampler(
      [&sim, prof, gauges = std::move(gauges)](obs::Timeline&) {
        if (prof != nullptr) {
          prof->set(obs::MemCategory::kKernelSlab,
                    static_cast<std::int64_t>(sim.kernel_stats().slab_bytes));
        }
        for (const auto& [gauge, read] : gauges) gauge->set(read());
      });
}

Results RunScaffold::execute(BackendPort& port, SimTime steady_begin,
                             Series series) {
  const PortTraits& traits = port.traits();
  const FaultTargets& t = traits.targets;
  faults_.check_targets({hydra_.node_count(), t.brokers, t.producer_services,
                         t.consumer_services});

  // Fault hooks on the LAN fabric and the port's servers fire at fixed
  // virtual times, so chaos runs are as deterministic as fault-free ones.
  FaultHooks hooks = traits.hooks;
  net::Lan& lan = hydra_.lan();
  hooks.set_nic = [&lan](int node, bool down) {
    lan.set_node_down(node, down);
  };
  hooks.set_loss = [&lan, base = lan.config().datagram_loss](double p,
                                                             bool active) {
    lan.set_datagram_loss(active ? p : base);
  };
  injector_.emplace(sim(), faults_, std::move(hooks));
  injector_->arm(steady_begin);
  tracker_.set_windows(injector_->windows());

  if (recorder_) {
    // Chaos track: every planned event, instantaneous ones included.
    for (const FaultEvent& event : faults_.events) {
      const SimTime at =
          (event.anchor == FaultAnchor::kSteady ? steady_begin : 0) + event.at;
      recorder_->add_chaos(std::string(to_string(event.kind)), at,
                           at + event.duration);
    }
    observe(std::move(series));
    recorder_->arm(kStartTime);
  }

  // vmstat on every server host: memory over the whole run (the ramp is
  // what grows it), CPU idle over the steady publishing window only.
  const SimTime measure_end = steady_begin + config_.duration;
  const std::vector<int>& servers = traits.server_hosts;
  std::deque<cluster::VmstatSampler> mem_samplers;
  std::deque<cluster::VmstatSampler> cpu_samplers;
  for (int host : servers) {
    auto* mem = &mem_samplers.emplace_back(hydra_.host(host));
    auto* cpu = &cpu_samplers.emplace_back(hydra_.host(host));
    sim().schedule_at(kStartTime, [mem] { mem->start(); });
    sim().schedule_at(steady_begin, [cpu] { cpu->start(); });
    sim().schedule_at(measure_end, [mem, cpu] {
      mem->stop();
      cpu->stop();
    });
  }

  const SimTime horizon = measure_end + traits.drain;
  sim().run_until(horizon);

  double idle_sum = 0.0;
  std::int64_t mem_sum = 0;
  for (auto& sampler : cpu_samplers) idle_sum += sampler.mean_cpu_idle();
  for (auto& sampler : mem_samplers) mem_sum += sampler.memory_consumption();
  const auto count = static_cast<std::int64_t>(servers.size());
  results_.servers.cpu_idle_pct = idle_sum / static_cast<double>(count);
  results_.servers.memory_bytes = mem_sum / count;
  for (int host : servers) results_.wire_bytes += lan.bytes_to_node(host);
  results_.refused = results_.metrics.refused_connections();
  results_.refused_in_faults = refused_in_faults_;
  results_.completed = !results_.hit_oom_wall();
  results_.kernel = sim().kernel_stats();
  if (memprof_) {
    memprof_->set(obs::MemCategory::kKernelSlab,
                  static_cast<std::int64_t>(results_.kernel.slab_bytes));
    results_.mem = memprof_->summary();
  }

  // Availability: classify every undelivered publish against the fault
  // windows (order-independent sums); the port adds recovery effort.
  for (const auto& [key, record] : in_flight_) {
    tracker_.classify_loss(record.before_sending);
  }
  results_.availability = tracker_.finalise(horizon);
  results_.availability.fault_events = injector_->injected();
  results_.availability.delivered_late = results_.metrics.delivered_late();
  port.finish(results_);
  if (recorder_) results_.obs = recorder_->finish(horizon);
  return std::move(results_);
}

namespace {

/// One simulated power generator (§III.E): created on the stagger, it
/// connects through the port, sleeps uniform(warmup_min, warmup_max) so
/// publications spread evenly, then publishes every period.
class Generator {
 public:
  Generator(RunScaffold& run, BackendPort& port, const FleetConfig& fleet,
            std::int64_t id)
      : run_(run),
        port_(port),
        fleet_(fleet),
        id_(id),
        rng_(run.sim().rng_stream(port.traits().rng_stream).stream(
            static_cast<std::uint64_t>(id))) {}

  void start() {
    port_.connect(id_, [this](bool ok) {
      if (!ok) return run_.refuse(1);
      const SimTime period = fleet_.publish_period;
      remaining_ = period > 0 ? run_.duration() / period : 0;
      // R-GMA without warm-up (the paper's loss experiment) starts at a
      // random phase, so first inserts race the mediator's attachment.
      const bool phase =
          fleet_.warmup_max <= 0 && port_.traits().random_first_phase;
      const auto warmup = static_cast<SimTime>(rng_.uniform(
          phase ? 0.0 : static_cast<double>(fleet_.warmup_min),
          static_cast<double>(phase ? period : fleet_.warmup_max)));
      run_.sim().schedule_after(warmup, [this] { publish_next(); });
    });
  }

 private:
  void publish_next() {
    if (remaining_ <= 0) return;
    --remaining_;
    // Count at publish intent: a sample stuck in a disconnected client or
    // refused by a crashed container is a loss, visible as one.
    run_.metrics().count_sent();
    port_.publish({id_, sequence_++, port_.traits().sample_bytes,
                   run_.sim().now(), {}, {}},
                  rng_);
    run_.sim().schedule_after(fleet_.publish_period,
                              [this] { publish_next(); });
  }

  RunScaffold& run_;
  BackendPort& port_;
  const FleetConfig& fleet_;
  std::int64_t id_;
  util::Rng rng_;
  std::int64_t sequence_ = 0;
  std::int64_t remaining_ = 0;
};

}  // namespace

Results run_fleet(RunScaffold& run, BackendPort& port,
                  const FleetConfig& fleet) {
  run.install_obs();
  port.subscribe();
  std::deque<Generator> generators;
  for (int g = 0; g < fleet.generators; ++g) {
    port.add_publisher(g);
    Generator* generator = &generators.emplace_back(run, port, fleet, g);
    run.sim().schedule_at(
        RunScaffold::kStartTime + fleet.creation_interval * g,
        [generator] { generator->start(); });
  }
  const SimTime steady_begin = RunScaffold::kStartTime +
                               fleet.creation_interval * fleet.generators +
                               fleet.warmup_max;
  return run.execute(port, steady_begin, port.traits().series);
}

}  // namespace gridmon::core
