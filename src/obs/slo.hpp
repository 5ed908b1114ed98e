// Declarative service-level objectives for chaos campaigns.
//
// An SloSpec is a small set of bounds — loss-rate ceiling, deadline-miss
// ceiling (against the paper's 5 s real-time bound), TTR ceiling,
// availability floor — attached to a scenario in the registry and
// evaluated against the run's metrics + availability counters after every
// run. Evaluation is burn-rate based: each objective reports
// measured/bound (ceilings) or unavailability/error-budget (floors), so
// "how badly" a run violated its SLO is a single comparable number and
// `worst_burn <= 1` is the pass condition. TTR objectives evaluate
// per-window over the AvailabilityTracker's ttr_windows_ms (multi-window
// burn rate: one check per outage window, worst wins).
//
// Scoping: loss objectives can target the whole run, the steady state
// (losses not attributable to any fault window), or the fault windows
// (losses sent inside an outage window). Deadline-miss and availability
// objectives are whole-run by construction (the model does not split late
// deliveries by window); a narrower requested scope is recorded but the
// measurement is whole-run. TTR objectives are per-window by nature.
//
// Layering: this header sees only plain numbers (SloInput), never
// core::Results — core depends on obs, not the other way around.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gridmon::obs {

enum class SloScope : std::uint8_t {
  kWholeRun = 0,   ///< every message / the whole horizon
  kSteady,         ///< excludes losses attributed to fault windows
  kFaultWindows,   ///< only losses sent inside an outage window
};

struct SloObjective {
  enum class Kind : std::uint8_t {
    kLossPct = 0,        ///< ceiling on lost/sent, percent
    kDeadlineMissPct,    ///< ceiling on deliveries past the 5 s bound, percent
    kTtrMs,              ///< ceiling on per-window time-to-recover, ms
    kAvailabilityPct,    ///< floor on 100 * (1 - downtime/horizon)
    kLossAfterRecoveryPct,  ///< ceiling on fault-attributed residual loss
  };
  Kind kind = Kind::kLossPct;
  SloScope scope = SloScope::kWholeRun;
  /// Ceiling for the first three kinds, floor for availability.
  double bound = 0.0;
};

[[nodiscard]] std::string_view to_string(SloObjective::Kind kind);
[[nodiscard]] std::string_view to_string(SloScope scope);

/// A scenario's objectives. Empty spec = no SLO (nothing evaluated).
struct SloSpec {
  std::vector<SloObjective> objectives;

  [[nodiscard]] bool empty() const { return objectives.empty(); }

  // Fluent builders (chainable, FaultPlan-style).
  SloSpec& max_loss_pct(double pct, SloScope scope = SloScope::kWholeRun);
  SloSpec& max_deadline_miss_pct(double pct);
  SloSpec& max_ttr_ms(double ms);
  SloSpec& min_availability_pct(double pct);
  /// Messages still lost *after* the recovery (and backfill) machinery had
  /// its chance: fault-attributed losses as a percentage of sent. Replay
  /// scenarios gate on this going to ~0.
  SloSpec& max_loss_after_recovery_pct(double pct);
};

/// The numbers an evaluation consumes — a plain-data mirror of the
/// Metrics/Availability fields core fills in (core/report.hpp adapts).
struct SloInput {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t delivered_late = 0;   ///< past the 5 s deadline
  std::uint64_t lost_in_window = 0;   ///< losses sent inside a fault window
  std::uint64_t lost_post_window = 0; ///< fault-tail losses outside windows
  double downtime_ms = 0.0;
  double ttr_ms = 0.0;                ///< worst window (0 = no outage)
  std::vector<double> ttr_windows_ms; ///< per-window TTR, begin order
  double duration_ms = 0.0;           ///< availability denominator
};

/// One evaluated bound. `window` >= 0 identifies the outage window of a
/// per-window TTR check; -1 is an aggregate check.
struct SloCheck {
  SloObjective objective;
  double measured = 0.0;
  double burn = 0.0;  ///< > 1 means violated; clamped to kMaxBurn
  bool pass = true;
  int window = -1;
};

/// Burn values are clamped here so a zero bound with a nonzero measurement
/// stays finite and formats deterministically.
inline constexpr double kMaxBurn = 1e6;

struct SloReport {
  bool evaluated = false;  ///< false = the spec was empty
  bool pass = true;
  double worst_burn = 0.0;
  std::vector<SloCheck> checks;

  /// "loss_pct(whole) 31.2 > 5 (burn 6.24)" for the worst failing check,
  /// or "ok" when everything passed. Deterministic formatting.
  [[nodiscard]] std::string worst_violation() const;
};

[[nodiscard]] SloReport evaluate_slo(const SloSpec& spec,
                                     const SloInput& input);

}  // namespace gridmon::obs
