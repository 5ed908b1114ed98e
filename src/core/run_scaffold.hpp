// One experiment lifecycle for every backend and tier. The paper measures
// every middleware the same way (§III.C, §III.E–F): staggered generators
// publish every 10 s and each delivery is timed as RTT = PRT + PT + SRT.
// RunScaffold owns that method once: testbed, Results, the in-flight
// ledger, obs, faults, vmstat and the horizon. A BackendPort is the
// per-middleware rest, GMA's producer/consumer shape over interchangeable
// transports: servers, one client per publisher, the subscriber side,
// counters, fault targets and recovery effort. Flat fleets (run_fleet)
// publish samples through a port; hier regionals publish frames.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/hydra.hpp"
#include "core/experiment.hpp"
#include "hier/aggregator.hpp"

namespace gridmon::core {

/// One publish awaiting delivery.
struct InFlight {
  SimTime before_sending = 0;
  SimTime after_sending = 0;
  obs::TraceKey trace = 0;  ///< span key (flat runs mark pub/sent/recv)
  std::vector<hier::EdgeFrame> segments;  ///< a hier frame's edge windows
};

/// One publish handed to a port.
struct Publish {
  std::int64_t publisher = 0;  ///< generator or regional id
  std::int64_t seq = 0;        ///< the publisher's sequence number
  std::int64_t bytes = 0;      ///< modelled wire size
  SimTime before = 0;          ///< the ledger's before_sending
  std::string_view topic;      ///< MQTT topic ("" = the flat sample topic)
  std::vector<hier::EdgeFrame> segments;
};

/// A named counter sampled into the run's Timeline.
using GaugeSpec = std::pair<std::string, std::function<double()>>;

/// The Timeline columns a run adds after the base gauges.
struct Series {
  std::vector<GaugeSpec> counters;       ///< backend or tier counters
  std::vector<obs::MemCategory> memory;  ///< mem_* columns (memprof runs)
  /// Replay runs only; mem_history follows them on memprof runs.
  std::vector<GaugeSpec> replay;
};

/// What the scaffold and the flat generators read off a port. A fleet
/// without warm-up may start at a random phase of the period.
struct PortTraits {
  std::vector<int> server_hosts;  ///< vmstat and inbound bytes
  FaultTargets targets;  ///< brokers and servlets (the testbed adds nodes)
  FaultHooks hooks;      ///< the servers' hooks (the scaffold adds the LAN's)
  Series series;         ///< backend counters (flat runs)
  SimTime drain = units::seconds(60);  ///< after the window, to the horizon
  const char* rng_stream = "generator";
  std::int64_t sample_bytes = 0;
  bool random_first_phase = false;
};

class BackendPort {
 public:
  BackendPort() = default;
  BackendPort(const BackendPort&) = delete;  // hooks and gauges hold `this`
  BackendPort& operator=(const BackendPort&) = delete;
  virtual ~BackendPort() = default;
  [[nodiscard]] const PortTraits& traits() const { return traits_; }
  /// Create the client of publisher `id` (ids are added densely from 0).
  virtual void add_publisher(std::int64_t id) = 0;
  /// Connect or declare; ok=false means the server refused it.
  virtual void connect(std::int64_t id, std::function<void(bool)> on_ready) = 0;
  /// Open the publish's ledger entry and send it.
  virtual void publish(Publish publish, util::Rng& rng) = 0;
  /// Start the subscriber side, delivering into the ledger.
  virtual void subscribe() = 0;
  /// Backend counters and recovery effort into Results.
  virtual void finish(Results& results) = 0;

 protected:
  PortTraits traits_;
};

class RunScaffold {
 public:
  static constexpr SimTime kStartTime = units::seconds(1);

  /// The testbed is `hydra` seeded with the run's seed.
  RunScaffold(const RunConfig& config, FaultPlan faults,
              std::int64_t generators, cluster::HydraConfig hydra = {});

  [[nodiscard]] cluster::Hydra& hydra() { return hydra_; }
  [[nodiscard]] sim::Simulation& sim() { return hydra_.sim(); }
  [[nodiscard]] Metrics& metrics() { return results_.metrics; }
  [[nodiscard]] SimTime duration() const { return config_.duration; }

  /// Install the run's Recorder/MemProfile; later allocations are counted.
  void install_obs();
  /// Hier runs: deliveries are frames, accounted per sample from `tree`.
  void account_samples(const hier::TreeConfig& tree) { tree_ = &tree; }
  /// Count `n` refused connections (in a fault window or not).
  void refuse(std::uint64_t n);

  /// The in-flight ledger: open one publish's entry.
  void open(std::string key, InFlight entry);
  /// The send call returned (Narada, MQTT).
  void sent(const std::string& key, obs::TraceKey trace, SimTime after);
  /// The insert's HTTP response arrived (R-GMA); a failed insert is a loss.
  void inserted(const std::string& key, obs::TraceKey trace, bool ok,
                SimTime after);
  /// Any end-to-end arrival, in the ledger or not (recovery timing).
  void arrival() { tracker_.on_delivery(sim().now()); }
  /// Account the delivery of `key`; false when it is not in flight.
  bool deliver(const std::string& key, SimTime arrived_at,
               std::string_view stage = "recv");
  [[nodiscard]] std::uint64_t opened() const { return opened_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }

  /// Check the fault plan against the port, arm faults, obs and vmstat,
  /// run to the horizon and finalise Results.
  [[nodiscard]] Results execute(BackendPort& port, SimTime steady_begin,
                                Series series);

 private:
  /// Span marks: flat runs only (hier frames are not traced).
  [[nodiscard]] obs::Recorder* spans() const {
    return tree_ == nullptr ? obs::tracer() : nullptr;
  }
  void observe(Series series);

  cluster::Hydra hydra_;
  RunConfig config_;
  FaultPlan faults_;
  Results results_;
  AvailabilityTracker tracker_;
  std::unordered_map<std::string, InFlight> in_flight_;
  std::uint64_t opened_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t refused_in_faults_ = 0;
  const hier::TreeConfig* tree_ = nullptr;
  std::optional<FaultInjector> injector_;
  std::unique_ptr<obs::MemProfile> memprof_;
  std::unique_ptr<obs::Recorder> recorder_;
  obs::HistogramSketch* rtt_series_ = nullptr;
  std::optional<obs::ScopedMemProfile> scoped_mem_;
  std::optional<obs::ScopedRecorder> scoped_recorder_;
};

/// The per-middleware ports. `hier` selects the hier tier's client names
/// and host layout (regionals publish, the root subscribes).
[[nodiscard]] std::unique_ptr<BackendPort> make_narada_port(
    RunScaffold& run, NaradaConfig config, bool hier = false);
[[nodiscard]] std::unique_ptr<BackendPort> make_rgma_port(
    RunScaffold& run, RgmaConfig config, bool hier = false);
[[nodiscard]] std::unique_ptr<BackendPort> make_mqtt_port(
    RunScaffold& run, MqttConfig config, bool hier = false);

/// The flat harness: install obs, subscribe, create the generator fleet on
/// the paper's stagger and run it through `port`.
[[nodiscard]] Results run_fleet(RunScaffold& run, BackendPort& port,
                                const FleetConfig& fleet);

}  // namespace gridmon::core
