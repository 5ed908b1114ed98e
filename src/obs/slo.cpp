#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>

namespace gridmon::obs {

std::string_view to_string(SloObjective::Kind kind) {
  switch (kind) {
    case SloObjective::Kind::kLossPct:
      return "loss_pct";
    case SloObjective::Kind::kDeadlineMissPct:
      return "deadline_miss_pct";
    case SloObjective::Kind::kTtrMs:
      return "ttr_ms";
    case SloObjective::Kind::kAvailabilityPct:
      return "availability_pct";
    case SloObjective::Kind::kLossAfterRecoveryPct:
      return "loss_after_recovery_pct";
  }
  return "unknown";
}

std::string_view to_string(SloScope scope) {
  switch (scope) {
    case SloScope::kWholeRun:
      return "whole";
    case SloScope::kSteady:
      return "steady";
    case SloScope::kFaultWindows:
      return "windows";
  }
  return "unknown";
}

SloSpec& SloSpec::max_loss_pct(double pct, SloScope scope) {
  objectives.push_back({SloObjective::Kind::kLossPct, scope, pct});
  return *this;
}

SloSpec& SloSpec::max_deadline_miss_pct(double pct) {
  objectives.push_back(
      {SloObjective::Kind::kDeadlineMissPct, SloScope::kWholeRun, pct});
  return *this;
}

SloSpec& SloSpec::max_ttr_ms(double ms) {
  objectives.push_back(
      {SloObjective::Kind::kTtrMs, SloScope::kFaultWindows, ms});
  return *this;
}

SloSpec& SloSpec::min_availability_pct(double pct) {
  objectives.push_back(
      {SloObjective::Kind::kAvailabilityPct, SloScope::kWholeRun, pct});
  return *this;
}

SloSpec& SloSpec::max_loss_after_recovery_pct(double pct) {
  objectives.push_back({SloObjective::Kind::kLossAfterRecoveryPct,
                        SloScope::kWholeRun, pct});
  return *this;
}

namespace {

/// Burn for a ceiling bound: measured/bound, finite for bound == 0.
double ceiling_burn(double measured, double bound) {
  if (bound <= 0.0) return measured > 0.0 ? kMaxBurn : 0.0;
  return std::min(kMaxBurn, measured / bound);
}

void add_check(SloReport& report, const SloObjective& objective,
               double measured, double burn, int window = -1) {
  SloCheck check;
  check.objective = objective;
  check.measured = measured;
  check.burn = burn;
  check.pass = burn <= 1.0 + 1e-9;
  check.window = window;
  report.pass = report.pass && check.pass;
  report.worst_burn = std::max(report.worst_burn, burn);
  report.checks.push_back(check);
}

double loss_measurement(const SloObjective& objective,
                        const SloInput& input) {
  if (input.sent == 0) return 0.0;
  const std::uint64_t total_lost =
      input.sent > input.received ? input.sent - input.received : 0;
  std::uint64_t lost = total_lost;
  switch (objective.scope) {
    case SloScope::kWholeRun:
      break;
    case SloScope::kSteady: {
      const std::uint64_t fault_attributed =
          input.lost_in_window + input.lost_post_window;
      lost = total_lost > fault_attributed ? total_lost - fault_attributed
                                           : 0;
      break;
    }
    case SloScope::kFaultWindows:
      lost = input.lost_in_window;
      break;
  }
  return 100.0 * static_cast<double>(lost) /
         static_cast<double>(input.sent);
}

}  // namespace

std::string SloReport::worst_violation() const {
  const SloCheck* worst = nullptr;
  for (const SloCheck& check : checks) {
    if (check.pass) continue;
    if (worst == nullptr || check.burn > worst->burn) worst = &check;
  }
  if (worst == nullptr) return "ok";
  char buffer[160];
  const bool floor =
      worst->objective.kind == SloObjective::Kind::kAvailabilityPct;
  if (worst->window >= 0) {
    std::snprintf(buffer, sizeof buffer, "%s[w%d] %.1f %s %.1f (burn %.2f)",
                  std::string(to_string(worst->objective.kind)).c_str(),
                  worst->window, worst->measured, floor ? "<" : ">",
                  worst->objective.bound, worst->burn);
  } else {
    std::snprintf(buffer, sizeof buffer, "%s(%s) %.2f %s %.2f (burn %.2f)",
                  std::string(to_string(worst->objective.kind)).c_str(),
                  std::string(to_string(worst->objective.scope)).c_str(),
                  worst->measured, floor ? "<" : ">", worst->objective.bound,
                  worst->burn);
  }
  return buffer;
}

SloReport evaluate_slo(const SloSpec& spec, const SloInput& input) {
  SloReport report;
  if (spec.empty()) return report;
  report.evaluated = true;
  for (const SloObjective& objective : spec.objectives) {
    switch (objective.kind) {
      case SloObjective::Kind::kLossPct: {
        const double measured = loss_measurement(objective, input);
        add_check(report, objective, measured,
                  ceiling_burn(measured, objective.bound));
        break;
      }
      case SloObjective::Kind::kDeadlineMissPct: {
        const double measured =
            input.received == 0
                ? 0.0
                : 100.0 * static_cast<double>(input.delivered_late) /
                      static_cast<double>(input.received);
        add_check(report, objective, measured,
                  ceiling_burn(measured, objective.bound));
        break;
      }
      case SloObjective::Kind::kTtrMs: {
        if (!input.ttr_windows_ms.empty()) {
          // Multi-window burn rate: every outage window is its own check.
          for (std::size_t w = 0; w < input.ttr_windows_ms.size(); ++w) {
            const double measured = input.ttr_windows_ms[w];
            add_check(report, objective, measured,
                      ceiling_burn(measured, objective.bound),
                      static_cast<int>(w));
          }
        } else {
          // No window detail (pooled legacy input or no outages at all):
          // evaluate the worst-window aggregate.
          add_check(report, objective, input.ttr_ms,
                    ceiling_burn(input.ttr_ms, objective.bound));
        }
        break;
      }
      case SloObjective::Kind::kAvailabilityPct: {
        const double measured =
            input.duration_ms <= 0.0
                ? 100.0
                : 100.0 * (1.0 - input.downtime_ms / input.duration_ms);
        const double budget = std::max(1e-9, 100.0 - objective.bound);
        const double burn =
            std::min(kMaxBurn, std::max(0.0, 100.0 - measured) / budget);
        add_check(report, objective, measured, burn);
        break;
      }
      case SloObjective::Kind::kLossAfterRecoveryPct: {
        // Residual loss the recovery/backfill machinery failed to repair:
        // everything the fault windows claimed (in-window + tail).
        const double measured =
            input.sent == 0
                ? 0.0
                : 100.0 *
                      static_cast<double>(input.lost_in_window +
                                          input.lost_post_window) /
                      static_cast<double>(input.sent);
        add_check(report, objective, measured,
                  ceiling_burn(measured, objective.bound));
        break;
      }
    }
  }
  return report;
}

}  // namespace gridmon::obs
