// Deterministic fault injection and availability accounting.
//
// The paper measures steady-state behaviour only, but its motivating
// requirement (<0.5 % loss, ~5 s delivery) is really a claim about behaviour
// *under failure*: the R-GMA deployment report attributes most real-world
// loss to registry/servlet outages, and Zhang et al. benchmark monitoring
// services under component restart. A FaultPlan is a declarative, seedless
// schedule of fault events; the experiment harnesses translate it into
// kernel timers, so a chaos run stays a pure function of
// (scenario, duration, seed) and is byte-identical across campaign `jobs`
// settings — faults fire at fixed virtual times, never from wall-clock or
// extra RNG draws.
//
// Three pieces live here:
//  - FaultPlan / FaultEvent: the schedule (builder helpers, a setup-time
//    range check, and a one-line-per-event text form that its errors quote).
//  - FaultInjector: binds a plan to a Simulation through FaultHooks — a
//    struct of std::function slots the experiment fills in with whatever its
//    topology exposes (LAN NICs, brokers, R-GMA servlets). Events whose hook
//    is unset are skipped, so one plan type serves both middlewares.
//  - AvailabilityTracker / Availability: per-run downtime, time-to-recover
//    (fault start → first post-fault delivery), and in-window vs post-window
//    loss classification, exported through Results into campaign CSV/JSON.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulation.hpp"
#include "util/units.hpp"

namespace gridmon::core {

enum class FaultKind {
  kNicDown,         ///< target = LAN node; NIC down for `duration`
  kLossBurst,       ///< LAN-wide datagram loss `param` for `duration`
  kDbnPartition,    ///< cut the inter-broker links for `duration`
  kBrokerCrash,     ///< target = broker index; restart after `duration` dwell
  kRegistryRestart,       ///< registry container down `duration`, state wiped
  kProducerServletRestart,  ///< target = producer service index
  kConsumerServletRestart,  ///< target = consumer service index
  kRegistryHalfOpen,  ///< registry accepts connections but never responds
};

[[nodiscard]] std::string_view to_string(FaultKind kind);

/// What `FaultEvent::at` is measured from. Most chaos scenarios anchor at
/// the steady-state epoch (after the creation ramp + warm-up, when every
/// client is publishing); registration-path faults anchor at run start so
/// they land *during* the ramp, where registration actually happens.
enum class FaultAnchor { kSteady, kRunStart };

struct FaultEvent {
  SimTime at = 0;  ///< offset from the anchor epoch
  FaultKind kind = FaultKind::kNicDown;
  FaultAnchor anchor = FaultAnchor::kSteady;
  int target = -1;
  SimTime duration = 0;  ///< outage window / crash dwell (0 = instantaneous)
  double param = 0.0;    ///< loss probability for kLossBurst
};

/// An outage window in *absolute* simulated time (resolved anchors).
struct FaultWindow {
  SimTime begin = 0;
  SimTime end = 0;
};

/// What a run's topology offers as fault targets.
struct FaultTargets {
  int nodes = 0;  ///< LAN nodes (nic_down)
  int brokers = 0;
  int producer_services = 0;
  int consumer_services = 0;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }

  // Builder helpers (all return *this for chaining).
  FaultPlan& nic_down(SimTime at, int node, SimTime duration,
                      FaultAnchor anchor = FaultAnchor::kSteady);
  FaultPlan& loss_burst(SimTime at, double probability, SimTime duration,
                        FaultAnchor anchor = FaultAnchor::kSteady);
  FaultPlan& dbn_partition(SimTime at, SimTime duration,
                           FaultAnchor anchor = FaultAnchor::kSteady);
  FaultPlan& broker_crash(SimTime at, int broker, SimTime dwell,
                          FaultAnchor anchor = FaultAnchor::kSteady);
  FaultPlan& registry_restart(SimTime at, SimTime outage,
                              FaultAnchor anchor = FaultAnchor::kRunStart);
  FaultPlan& producer_servlet_restart(
      SimTime at, int service, SimTime outage,
      FaultAnchor anchor = FaultAnchor::kSteady);
  FaultPlan& consumer_servlet_restart(
      SimTime at, int service, SimTime outage,
      FaultAnchor anchor = FaultAnchor::kSteady);
  /// Half-open outage: the registry accepts requests but never answers
  /// them, so only client-side time-outs make progress (Chaos v2).
  FaultPlan& registry_half_open(SimTime at, SimTime outage,
                                FaultAnchor anchor = FaultAnchor::kRunStart);

  /// One event per line: `kind anchor at_ns duration_ns target param`.
  [[nodiscard]] std::string serialise() const;

  /// Throws std::invalid_argument naming the first event that is out of
  /// range (a negative duration, a negative `at` under the start anchor or
  /// a probability outside [0, 1]) or whose target the topology does not
  /// have.
  void check_targets(const FaultTargets& targets) const;
};

/// True when `now` falls inside any of the (sorted, absolute) windows.
/// The harnesses use this to classify refusals: one that lands inside an
/// outage window is the fault schedule at work, not resource exhaustion.
[[nodiscard]] bool in_fault_window(const std::vector<FaultWindow>& windows,
                                   SimTime now);

/// Hook slots the experiment wires to its topology. Unset slots make the
/// corresponding fault kinds no-ops (an R-GMA run ignores broker crashes).
struct FaultHooks {
  std::function<void(int node, bool down)> set_nic;
  std::function<void(double probability, bool active)> set_loss;
  std::function<void(bool cut)> set_partition;
  std::function<void(int broker)> crash_broker;
  std::function<void(int broker)> restart_broker;
  std::function<void(bool down)> set_registry_down;
  std::function<void(bool half_open)> set_registry_half_open;
  std::function<void(int service, bool down)> set_producer_servlet_down;
  std::function<void(int service, bool down)> set_consumer_servlet_down;
};

/// Schedules a FaultPlan's begin/end actions on the kernel. Construct after
/// topology setup, call arm() once the steady-state epoch is known, keep
/// alive for the whole run (hooks capture topology references).
class FaultInjector {
 public:
  FaultInjector(sim::Simulation& sim, FaultPlan plan, FaultHooks hooks);

  /// Schedule every event. kSteady events anchor at `steady_epoch`,
  /// kRunStart events at time zero. Call exactly once, before run_until.
  void arm(SimTime steady_epoch);

  /// Absolute outage windows ([begin, begin+duration)), sorted by begin.
  /// Valid after arm().
  [[nodiscard]] const std::vector<FaultWindow>& windows() const {
    return windows_;
  }
  /// Fault begin-actions executed so far (instantaneous events count once).
  [[nodiscard]] std::uint64_t injected() const { return injected_; }

 private:
  void execute(const FaultEvent& event, bool begin);

  sim::Simulation& sim_;
  FaultPlan plan_;
  FaultHooks hooks_;
  std::vector<FaultWindow> windows_;
  std::uint64_t injected_ = 0;
};

/// Availability metrics for one run (all zero when the plan is empty).
struct Availability {
  std::uint64_t fault_events = 0;   ///< fault begin-actions executed
  double downtime_ms = 0.0;         ///< Σ per-window (first delivery − start)
  double time_to_recover_ms = 0.0;  ///< worst window's fault-start → first
                                    ///< post-fault delivery (clamped to the
                                    ///< run horizon if never recovered)
  /// Per-window TTR, one entry per outage window in begin order (the same
  /// values time_to_recover_ms is the max of). Campaign pooling keeps the
  /// element-wise worst case across seeds; exported in the JSON campaign
  /// format only, so the pinned CSV golden hashes stay put.
  std::vector<double> ttr_windows_ms;
  std::uint64_t lost_in_window = 0;   ///< losses sent inside an outage window
  std::uint64_t lost_post_window = 0;  ///< losses sent after the last window
                                       ///< began but outside any window
  std::uint64_t delivered_late = 0;  ///< deliveries past the 5 s deadline
  std::uint64_t reconnects = 0;      ///< client reconnect attempts
  std::uint64_t resubscribes = 0;    ///< subscriptions re-established
  std::uint64_t reregistrations = 0;  ///< R-GMA re-register/redeclare actions
  std::uint64_t backfill_msgs = 0;   ///< messages replayed from retention
  std::int64_t backfill_bytes = 0;   ///< wire bytes spent on replay traffic
};

/// Accumulates recovery timing against a set of outage windows. on_delivery
/// is called for every end-to-end delivery (cheap once all windows have
/// recovered); classify_loss is called per lost message at run end.
class AvailabilityTracker {
 public:
  void set_windows(std::vector<FaultWindow> windows);

  void on_delivery(SimTime now);
  void classify_loss(SimTime sent_at);

  /// Close unrecovered windows at the run horizon and return the totals.
  /// The counter fields (fault_events, delivered_late, reconnects, ...) are
  /// left zero for the caller to fill in.
  [[nodiscard]] Availability finalise(SimTime horizon) const;

 private:
  struct WindowState {
    FaultWindow window;
    SimTime recovered_at = -1;  ///< first delivery at/after window.begin
  };
  std::vector<WindowState> windows_;
  std::size_t unrecovered_ = 0;
  std::uint64_t lost_in_window_ = 0;
  std::uint64_t lost_post_window_ = 0;
};

}  // namespace gridmon::core
