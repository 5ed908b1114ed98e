#include "core/faults.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace gridmon::core {

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNicDown: return "nic_down";
    case FaultKind::kLossBurst: return "loss_burst";
    case FaultKind::kDbnPartition: return "dbn_partition";
    case FaultKind::kBrokerCrash: return "broker_crash";
    case FaultKind::kRegistryRestart: return "registry_restart";
    case FaultKind::kProducerServletRestart: return "producer_servlet_restart";
    case FaultKind::kConsumerServletRestart: return "consumer_servlet_restart";
    case FaultKind::kRegistryHalfOpen: return "registry_half_open";
  }
  return "unknown";
}

FaultPlan& FaultPlan::nic_down(SimTime at, int node, SimTime duration,
                               FaultAnchor anchor) {
  events.push_back({at, FaultKind::kNicDown, anchor, node, duration, 0.0});
  return *this;
}

FaultPlan& FaultPlan::loss_burst(SimTime at, double probability,
                                 SimTime duration, FaultAnchor anchor) {
  events.push_back(
      {at, FaultKind::kLossBurst, anchor, -1, duration, probability});
  return *this;
}

FaultPlan& FaultPlan::dbn_partition(SimTime at, SimTime duration,
                                    FaultAnchor anchor) {
  events.push_back({at, FaultKind::kDbnPartition, anchor, -1, duration, 0.0});
  return *this;
}

FaultPlan& FaultPlan::broker_crash(SimTime at, int broker, SimTime dwell,
                                   FaultAnchor anchor) {
  events.push_back({at, FaultKind::kBrokerCrash, anchor, broker, dwell, 0.0});
  return *this;
}

FaultPlan& FaultPlan::registry_restart(SimTime at, SimTime outage,
                                       FaultAnchor anchor) {
  events.push_back(
      {at, FaultKind::kRegistryRestart, anchor, -1, outage, 0.0});
  return *this;
}

FaultPlan& FaultPlan::producer_servlet_restart(SimTime at, int service,
                                               SimTime outage,
                                               FaultAnchor anchor) {
  events.push_back({at, FaultKind::kProducerServletRestart, anchor, service,
                    outage, 0.0});
  return *this;
}

FaultPlan& FaultPlan::consumer_servlet_restart(SimTime at, int service,
                                               SimTime outage,
                                               FaultAnchor anchor) {
  events.push_back({at, FaultKind::kConsumerServletRestart, anchor, service,
                    outage, 0.0});
  return *this;
}

FaultPlan& FaultPlan::registry_half_open(SimTime at, SimTime outage,
                                         FaultAnchor anchor) {
  events.push_back(
      {at, FaultKind::kRegistryHalfOpen, anchor, -1, outage, 0.0});
  return *this;
}

std::string FaultPlan::serialise() const {
  std::string out;
  char line[160];
  for (const FaultEvent& event : events) {
    std::snprintf(line, sizeof line, "%s %s %lld %lld %d %.17g\n",
                  std::string(to_string(event.kind)).c_str(),
                  event.anchor == FaultAnchor::kSteady ? "steady" : "start",
                  static_cast<long long>(event.at),
                  static_cast<long long>(event.duration), event.target,
                  event.param);
    out += line;
  }
  return out;
}

void FaultPlan::check_targets(const FaultTargets& targets) const {
  for (const FaultEvent& event : events) {
    auto reject = [&](const std::string& why) {
      std::string line = FaultPlan{{event}}.serialise();
      line.pop_back();  // the newline
      throw std::invalid_argument("fault event '" + line + "': " + why);
    };
    if (event.duration < 0) reject("negative duration");
    if (event.anchor == FaultAnchor::kRunStart && event.at < 0) {
      reject("starts before the run");
    }
    if (!(event.param >= 0.0 && event.param <= 1.0)) {
      reject("probability outside [0, 1]");
    }
    auto require = [&](int target, int count, const char* what) {
      if (target >= 0 && target < count) return;
      reject(std::string(what) + " target " + std::to_string(target) +
             " outside [0, " + std::to_string(count) + ")");
    };
    switch (event.kind) {
      case FaultKind::kNicDown:
        require(event.target, targets.nodes, "LAN node");
        break;
      case FaultKind::kBrokerCrash:
        require(event.target, targets.brokers, "broker");
        break;
      case FaultKind::kProducerServletRestart:
        require(event.target, targets.producer_services, "producer service");
        break;
      case FaultKind::kConsumerServletRestart:
        require(event.target, targets.consumer_services, "consumer service");
        break;
      default:
        break;
    }
  }
}

bool in_fault_window(const std::vector<FaultWindow>& windows, SimTime now) {
  for (const FaultWindow& window : windows) {
    if (now >= window.begin && now < window.end) return true;
  }
  return false;
}

// --- FaultInjector -----------------------------------------------------------

FaultInjector::FaultInjector(sim::Simulation& sim, FaultPlan plan,
                             FaultHooks hooks)
    : sim_(sim), plan_(std::move(plan)), hooks_(std::move(hooks)) {}

void FaultInjector::arm(SimTime steady_epoch) {
  for (const FaultEvent& event : plan_.events) {
    const SimTime base =
        event.anchor == FaultAnchor::kSteady ? steady_epoch : 0;
    const SimTime begin_at = base + event.at;
    sim_.schedule_at(begin_at, [this, event] { execute(event, true); });
    if (event.duration > 0) {
      sim_.schedule_at(begin_at + event.duration,
                       [this, event] { execute(event, false); });
      windows_.push_back({begin_at, begin_at + event.duration});
    }
  }
  std::sort(windows_.begin(), windows_.end(),
            [](const FaultWindow& a, const FaultWindow& b) {
              return a.begin < b.begin || (a.begin == b.begin && a.end < b.end);
            });
}

void FaultInjector::execute(const FaultEvent& event, bool begin) {
  if (begin) ++injected_;
  switch (event.kind) {
    case FaultKind::kNicDown:
      if (hooks_.set_nic) hooks_.set_nic(event.target, begin);
      break;
    case FaultKind::kLossBurst:
      if (hooks_.set_loss) hooks_.set_loss(event.param, begin);
      break;
    case FaultKind::kDbnPartition:
      if (hooks_.set_partition) hooks_.set_partition(begin);
      break;
    case FaultKind::kBrokerCrash:
      if (begin) {
        if (hooks_.crash_broker) hooks_.crash_broker(event.target);
      } else {
        if (hooks_.restart_broker) hooks_.restart_broker(event.target);
      }
      break;
    case FaultKind::kRegistryRestart:
      if (hooks_.set_registry_down) hooks_.set_registry_down(begin);
      break;
    case FaultKind::kProducerServletRestart:
      if (hooks_.set_producer_servlet_down) {
        hooks_.set_producer_servlet_down(event.target, begin);
      }
      break;
    case FaultKind::kConsumerServletRestart:
      if (hooks_.set_consumer_servlet_down) {
        hooks_.set_consumer_servlet_down(event.target, begin);
      }
      break;
    case FaultKind::kRegistryHalfOpen:
      if (hooks_.set_registry_half_open) {
        hooks_.set_registry_half_open(begin);
      }
      break;
  }
}

// --- AvailabilityTracker -----------------------------------------------------

void AvailabilityTracker::set_windows(std::vector<FaultWindow> windows) {
  windows_.clear();
  windows_.reserve(windows.size());
  for (const FaultWindow& window : windows) windows_.push_back({window, -1});
  unrecovered_ = windows_.size();
}

void AvailabilityTracker::on_delivery(SimTime now) {
  if (unrecovered_ == 0) return;
  for (WindowState& state : windows_) {
    if (state.recovered_at >= 0) continue;
    if (now >= state.window.begin) {
      state.recovered_at = now;
      --unrecovered_;
    }
  }
}

void AvailabilityTracker::classify_loss(SimTime sent_at) {
  if (windows_.empty()) return;
  bool after_first = false;
  for (const WindowState& state : windows_) {
    if (sent_at >= state.window.begin) after_first = true;
    if (sent_at >= state.window.begin && sent_at < state.window.end) {
      ++lost_in_window_;
      return;
    }
  }
  if (after_first) ++lost_post_window_;
}

Availability AvailabilityTracker::finalise(SimTime horizon) const {
  Availability avail;
  for (const WindowState& state : windows_) {
    const SimTime recovered =
        state.recovered_at >= 0 ? state.recovered_at : horizon;
    const SimTime ttr = recovered - state.window.begin;
    avail.downtime_ms += units::to_millis(ttr);
    avail.time_to_recover_ms =
        std::max(avail.time_to_recover_ms, units::to_millis(ttr));
    avail.ttr_windows_ms.push_back(units::to_millis(ttr));
  }
  avail.lost_in_window = lost_in_window_;
  avail.lost_post_window = lost_post_window_;
  return avail;
}

}  // namespace gridmon::core
