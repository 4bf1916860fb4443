#include "wdg/heartbeat.hpp"

#include <cassert>
#include <stdexcept>

namespace easis::wdg {

void HeartbeatMonitoringUnit::add_runnable(const RunnableMonitor& config) {
  if (states_.contains(config.runnable)) {
    throw std::logic_error("HBM: runnable already monitored");
  }
  if (config.aliveness_cycles == 0 || config.arrival_cycles == 0) {
    throw std::invalid_argument("HBM: monitoring period must be >= 1 cycle");
  }
  State s;
  s.config = config;
  s.active = config.initially_active;
  states_.emplace(config.runnable, std::move(s));
  order_.push_back(config.runnable);
}

bool HeartbeatMonitoringUnit::monitors(RunnableId id) const {
  return states_.contains(id);
}

HeartbeatMonitoringUnit::State& HeartbeatMonitoringUnit::state(RunnableId id) {
  auto it = states_.find(id);
  assert(it != states_.end());
  return it->second;
}

const HeartbeatMonitoringUnit::State& HeartbeatMonitoringUnit::state(
    RunnableId id) const {
  auto it = states_.find(id);
  assert(it != states_.end());
  return it->second;
}

void HeartbeatMonitoringUnit::indicate(RunnableId id) {
  auto it = states_.find(id);
  if (it == states_.end()) return;  // unmonitored runnables are ignored
  State& s = it->second;
  if (!s.active) return;
  ++s.ac;
  ++s.arc;
}

void HeartbeatMonitoringUnit::tick(sim::SimTime now,
                                   const ErrorCallback& on_error) {
  for (RunnableId id : order_) {
    State& s = state(id);
    if (!s.active) continue;
    bool error_this_cycle = false;

    if (s.config.monitor_aliveness) {
      ++s.cca;
      if (s.cca >= s.config.aliveness_cycles) {
        // Check shortly before the next period begins.
        if (s.ac < s.config.min_heartbeats) {
          on_error(id, ErrorType::kAliveness, now);
          error_this_cycle = true;
        }
        s.ac = 0;
        s.cca = 0;
      }
    }

    if (s.config.monitor_arrival_rate) {
      ++s.ccar;
      if (s.ccar >= s.config.arrival_cycles) {
        if (s.arc > s.config.max_arrivals) {
          on_error(id, ErrorType::kArrivalRate, now);
          error_this_cycle = true;
        }
        s.arc = 0;
        s.ccar = 0;
      }
    }

    // Reset-on-error (paper: counters reset to zero if the period expires
    // or an error was detected in the last cycle): a detected error clears
    // both counter families so the next cycle starts from a clean slate.
    if (error_this_cycle) {
      s.ac = 0;
      s.arc = 0;
      s.cca = 0;
      s.ccar = 0;
    }
  }
}

void HeartbeatMonitoringUnit::set_activation_status(RunnableId id,
                                                    bool active) {
  State& s = state(id);
  if (s.active == active) return;
  s.active = active;
  // (Re)activation starts fresh monitoring periods.
  s.ac = 0;
  s.arc = 0;
  s.cca = 0;
  s.ccar = 0;
}

bool HeartbeatMonitoringUnit::activation_status(RunnableId id) const {
  return state(id).active;
}

void HeartbeatMonitoringUnit::update_hypothesis(
    RunnableId id, std::uint32_t aliveness_cycles,
    std::uint32_t min_heartbeats, std::uint32_t arrival_cycles,
    std::uint32_t max_arrivals) {
  if (aliveness_cycles == 0 || arrival_cycles == 0) {
    throw std::invalid_argument("HBM: monitoring period must be >= 1 cycle");
  }
  State& s = state(id);
  s.config.aliveness_cycles = aliveness_cycles;
  s.config.min_heartbeats = min_heartbeats;
  s.config.arrival_cycles = arrival_cycles;
  s.config.max_arrivals = max_arrivals;
  // Fresh periods under the new hypothesis.
  s.ac = 0;
  s.arc = 0;
  s.cca = 0;
  s.ccar = 0;
}

void HeartbeatMonitoringUnit::rebind(const RunnableMonitor& config) {
  if (config.aliveness_cycles == 0 || config.arrival_cycles == 0) {
    throw std::invalid_argument("HBM: monitoring period must be >= 1 cycle");
  }
  State& s = state(config.runnable);
  const bool active = s.active;  // rebinding does not touch activation
  s.config = config;
  s.active = active;
  // Fresh periods under the new hypothesis — a rebind mid-window must
  // never carry half-accumulated counters into the new contract.
  s.ac = 0;
  s.arc = 0;
  s.cca = 0;
  s.ccar = 0;
}

void HeartbeatMonitoringUnit::reset_runnable(RunnableId id) {
  State& s = state(id);
  s.ac = 0;
  s.arc = 0;
  s.cca = 0;
  s.ccar = 0;
}

void HeartbeatMonitoringUnit::reset() {
  for (RunnableId id : order_) {
    State& s = state(id);
    s.ac = 0;
    s.arc = 0;
    s.cca = 0;
    s.ccar = 0;
    s.active = s.config.initially_active;
  }
}

std::uint32_t HeartbeatMonitoringUnit::ac(RunnableId id) const {
  return state(id).ac;
}
std::uint32_t HeartbeatMonitoringUnit::arc(RunnableId id) const {
  return state(id).arc;
}
std::uint32_t HeartbeatMonitoringUnit::cca(RunnableId id) const {
  return state(id).cca;
}
std::uint32_t HeartbeatMonitoringUnit::ccar(RunnableId id) const {
  return state(id).ccar;
}

const RunnableMonitor& HeartbeatMonitoringUnit::config(RunnableId id) const {
  return state(id).config;
}

}  // namespace easis::wdg
