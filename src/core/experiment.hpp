// Experiment harness: the paper's test campaign as a library.
//
// Every backend runs through one lifecycle (core/run_scaffold.hpp): a
// fleet of simulated power generators (one client connection each, the
// paper's "concurrent connections") publishes through a per-middleware
// BackendPort into a subscriber program — Narada brokers (single or DBN),
// R-GMA registry/producer/consumer services polled by a subscriber
// (optionally through a Secondary Producer), or an MQTT broker. All of
// them return the same Results bundle the paper's figures are drawn from.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/faults.hpp"
#include "core/metrics.hpp"
#include "jms/message.hpp"
#include "narada/transport.hpp"
#include "obs/memprof.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "sim/simulation.hpp"
#include "util/units.hpp"

namespace gridmon::core {

struct ResourceUsage {
  double cpu_idle_pct = 100.0;       ///< mean over server hosts and samples
  std::int64_t memory_bytes = 0;     ///< peak-bottom, averaged over servers
};

struct Results {
  Metrics metrics;
  ResourceUsage servers;
  std::uint64_t events_forwarded = 0;  ///< broker→broker traffic (Narada)
  std::int64_t wire_bytes = 0;         ///< bytes into the server host(s)
  std::uint64_t refused = 0;           ///< connections/producers refused
  /// Of `refused`, how many happened inside an injected fault window
  /// (broker crashed, registry down, NIC outage). Those are availability
  /// artefacts of the fault schedule, not resource exhaustion.
  std::uint64_t refused_in_faults = 0;
  bool completed = true;               ///< false if the run hit a hard wall
  /// Fleet size of the run (generator tier for hier scenarios, client
  /// fleet otherwise). Drives the campaign `generators` column and the
  /// bytes/generator figure of merit.
  std::int64_t generators = 0;
  /// Availability under injected faults (all-zero when the scenario's
  /// FaultPlan is empty).
  Availability availability;
  /// DES-kernel self-metrics for the run (deterministic: a pure function
  /// of (scenario, duration, seed), so campaign exports may include them).
  sim::KernelStats kernel;
  /// Observability report (null unless the config enabled obs). The
  /// sampling timer reads state without mutating the models or drawing
  /// RNG, so every other Results field is identical with obs on or off —
  /// only the kernel event counts move.
  std::shared_ptr<const obs::Report> obs;
  /// Model memory-footprint summary (all-zero unless obs + memprof were
  /// on). peak_total is the "peak_model_bytes" campaign column.
  obs::MemSummary mem;
  /// SLO verdict (evaluated == false unless the scenario carried a spec).
  obs::SloReport slo;

  /// True when the server refused work *outside* any fault window — the
  /// resource-exhaustion signature (thread/heap walls), as opposed to
  /// refusals that are just the fault schedule doing its job.
  [[nodiscard]] bool hit_oom_wall() const { return refused > refused_in_faults; }
};

// --- Shared fleet shape ------------------------------------------------------

/// The knobs every backend's client fleet shares: how many generator clients
/// exist, how they stagger in, how fast they publish, and how they recover
/// from faults. Each backend config *embeds* one of these (composition, not
/// inheritance) so the three middlewares stop growing divergent copies of
/// the same fields. Backend-specific knobs (transports, QoS, poll periods)
/// stay on the backend configs.
struct FleetConfig {
  /// Fleet size: the paper's "concurrent connections" (generator clients
  /// for Narada/MQTT, producer clients for R-GMA).
  int generators = 800;
  /// One client is created every `creation_interval` starting at t=1 s.
  SimTime creation_interval = units::milliseconds(500);
  /// Each client sleeps uniform(warmup_min, warmup_max) before its first
  /// publish (0/0 disables the warm-up sleep — the loss experiments).
  SimTime warmup_min = units::seconds(10);
  SimTime warmup_max = units::seconds(20);
  SimTime publish_period = units::seconds(10);
  /// Extra payload bytes (0 = the paper's standard message; the Triple test
  /// pads to three times the standard size and publishes at 1/3 rate).
  std::int64_t pad_bytes = 0;
  /// Client recovery under injected faults: reconnect (net::ReconnectPolicy)
  /// or redeclare (rgma::kRedeclareBackoff) with capped exponential backoff
  /// and restore subscriptions/registrations. Off by default so the
  /// no-recovery baselines stay reproducible.
  bool recovery = false;
};

/// The knobs every harness config shares. `run_scenario` overrides all
/// three from the campaign, so a spec stays a pure description.
struct RunConfig {
  SimTime duration = units::minutes(30);  ///< per-generator publishing window
  std::uint64_t seed = 1;
  /// Observability (off by default; see obs/recorder.hpp).
  obs::Options obs;
};

// --- NaradaBrokering ---------------------------------------------------------

struct NaradaConfig : RunConfig {
  /// Backend name, carried by the config type itself so dispatch and
  /// display never switch on variant indices (see ScenarioSpec::system()).
  static constexpr const char* kBackend = "narada";
  /// Shared fleet/recovery knobs.
  FleetConfig fleet;
  narada::TransportKind transport = narada::TransportKind::kTcp;
  jms::AcknowledgeMode ack_mode = jms::AcknowledgeMode::kAutoAcknowledge;
  /// Brokers live on these Hydra hosts; one host = the single-broker tests,
  /// four hosts = the paper's DBN.
  std::vector<int> broker_hosts = {0};
  bool subscription_aware_routing = false;  ///< ablation: fix the deficiency
  /// The paper ran non-persistent delivery; kPersistent makes the broker
  /// write every event to stable storage first (ablation).
  jms::DeliveryMode delivery_mode = jms::DeliveryMode::kNonPersistent;
  /// Deterministic fault schedule (empty = the classic fault-free runs).
  FaultPlan faults;
  /// Reconnect backfill replication, the `_replay` chaos twins: brokers
  /// retain published frames in tiered HistoryBuffers, and reconnecting
  /// clients replay their gap, including after failing over to a
  /// surviving DBN broker. Off by default so every recovery-only baseline
  /// — and all the pinned golden hashes — stay byte-identical.
  bool replay = false;
  /// Sender-side aggregation (the IBM RMM technique, related work §IV):
  /// each publisher combines up to this many messages into one frame,
  /// flushed after narada::kAggregationFlushDelay (1 = off).
  int aggregation_batch = 1;
  /// The Web Services data path the paper rejected (§III.D): SOAP proxies
  /// encode every publish and decode every delivery (gma/webservices.hpp);
  /// the proxied subscribers acknowledge automatically.
  bool soap_proxy = false;
};

[[nodiscard]] Results run_narada_experiment(const NaradaConfig& config);

// --- R-GMA -------------------------------------------------------------------

struct RgmaConfig : RunConfig {
  static constexpr const char* kBackend = "rgma";
  /// Shared fleet/recovery knobs. `fleet.generators` is the paper's
  /// producer count; `fleet.recovery` enables the redeclare/renewal/retry
  /// policies.
  FleetConfig fleet{.generators = 400, .creation_interval = units::seconds(1)};
  /// Single server: all three services on one host. Distributed: the
  /// paper's 2 producer + 2 consumer nodes.
  bool distributed = false;
  bool via_secondary_producer = false;  ///< Fig 10 chain
  SimTime secondary_delay = units::seconds(30);
  /// HTTPS between R-GMA components (the paper avoided it; ablation).
  bool secure = false;
  /// Legacy StreamProducer/Archiver delivery path (the API related work
  /// [11] measured; ablation for the paper's §III.F.3 discrepancy).
  bool legacy_stream_api = false;
  /// Deterministic fault schedule (empty = the classic fault-free runs).
  FaultPlan faults;
  /// Registry soft-state TTL (0 = no expiry; chaos scenarios set it so
  /// stale entries age out and renewals matter).
  SimTime registry_ttl = 0;
  /// Client-side HTTP request time-out (0 = wait forever). The half-open
  /// registry fault only makes progress when this is set: a request the
  /// registry accepted but never answers fails with 408 after this long.
  SimTime request_timeout = 0;
  /// Reconnect backfill: a consumer that lost its continuous query issues
  /// a one-time history query against producer retention (the paper's own
  /// latest/history windows, TupleStore's constants) before resuming
  /// streaming.
  bool replay = false;
};

[[nodiscard]] Results run_rgma_experiment(const RgmaConfig& config);

// --- MQTT -------------------------------------------------------------------

struct MqttConfig : RunConfig {
  static constexpr const char* kBackend = "mqtt";
  /// Shared fleet/recovery knobs. The modern fleet boots faster than the
  /// 2007 clients, hence the tighter default creation stagger.
  FleetConfig fleet{.creation_interval = units::milliseconds(100)};
  /// Publisher QoS tier: 0 fire-and-forget, 1 at-least-once (PUBACK),
  /// 2 exactly-once (PUBREC/PUBREL/PUBCOMP).
  int qos = 0;
  /// Subscriber-side grant (effective QoS = min(publish, grant));
  /// -1 = same as `qos`.
  int subscriber_qos = -1;
  /// Mixed-QoS fleet: generator g publishes at QoS g % 3 (`qos` ignored).
  bool mixed_qos = false;
  /// false = persistent sessions: the broker keeps subscriptions, queued
  /// messages and in-flight QoS windows across disconnects.
  bool clean_session = true;
  SimTime keep_alive = units::seconds(30);  ///< 0 disables keep-alive
  /// Fan-in edge gateway batching: each client models a gateway fronting
  /// this many sensors, aggregating their samples into one proportionally
  /// larger PUBLISH per period (1 = every sample its own PUBLISH).
  int gateway_batch = 1;
  /// Deterministic fault schedule (empty = the classic fault-free runs).
  FaultPlan faults;
  /// Report the offline-queue drains (`backfill_msgs`, `backfill_bytes`)
  /// and evictions (`queue_dropped`) as obs series. The broker bounds a
  /// persistent session's QoS 1/2 parking queue by the HistoryBuffer
  /// windows whether this is on or not.
  bool replay = false;
};

[[nodiscard]] Results run_mqtt_experiment(const MqttConfig& config);

/// Scale an experiment duration down uniformly (used by quick test modes;
/// benches run the paper-faithful 30 minutes).
template <typename Config>
Config scaled(Config config, double factor) {
  config.duration = static_cast<SimTime>(
      static_cast<double>(config.duration) * factor);
  return config;
}

}  // namespace gridmon::core
