#include "wdg/env_monitor.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "telemetry/event_bus.hpp"

namespace easis::wdg {

EnvironmentSupervisionUnit::EnvironmentSupervisionUnit(
    SoftwareWatchdog& watchdog, rte::SignalBus& bus)
    : watchdog_(watchdog), bus_(bus) {}

void EnvironmentSupervisionUnit::register_virtual(RunnableId id, TaskId task,
                                                  ApplicationId app,
                                                  const std::string& name) {
  // Virtual runnable: present in the TSI for error accounting, invisible
  // to the heartbeat/flow units (an environment channel never executes).
  RunnableMonitor monitor;
  monitor.runnable = id;
  monitor.task = task;
  monitor.application = app;
  monitor.name = "env:" + name;
  monitor.monitor_aliveness = false;
  monitor.monitor_arrival_rate = false;
  monitor.program_flow = false;
  watchdog_.add_runnable(monitor);
}

void EnvironmentSupervisionUnit::add_thermal(const ThermalChannel& channel) {
  if (thermal_.contains(channel.id) || filesystem_.contains(channel.id)) {
    throw std::logic_error("ESU: channel already registered: " +
                           channel.name);
  }
  if (!channel.probe) {
    throw std::logic_error("ESU: thermal channel needs a probe: " +
                           channel.name);
  }
  register_virtual(channel.id, channel.task, channel.application,
                   channel.name);
  ThermalState state;
  state.config = channel;
  state.temp_signal = bus_.bind("env." + channel.name + ".temp_c");
  state.stage_signal = bus_.bind("env." + channel.name + ".stage");
  thermal_.emplace(channel.id, std::move(state));
  thermal_order_.push_back(channel.id);
}

void EnvironmentSupervisionUnit::add_filesystem(
    const FilesystemChannel& channel) {
  if (thermal_.contains(channel.id) || filesystem_.contains(channel.id)) {
    throw std::logic_error("ESU: channel already registered: " +
                           channel.name);
  }
  if (!channel.fill_probe) {
    throw std::logic_error("ESU: filesystem channel needs a fill probe: " +
                           channel.name);
  }
  register_virtual(channel.id, channel.task, channel.application,
                   channel.name);
  FilesystemState state;
  state.config = channel;
  state.fill_signal = bus_.bind("env." + channel.name + ".fill.level");
  state.wear_signal = bus_.bind("env." + channel.name + ".wear.level");
  filesystem_.emplace(channel.id, std::move(state));
  fs_order_.push_back(channel.id);
}

void EnvironmentSupervisionUnit::cycle(sim::SimTime now) {
  for (RunnableId id : thermal_order_) {
    cycle_thermal(thermal_.at(id), now);
  }
  for (RunnableId id : fs_order_) {
    cycle_filesystem(filesystem_.at(id), now);
  }
}

ThermalStage EnvironmentSupervisionUnit::stage_for(const ThermalState& state,
                                                   double reading) const {
  const ThermalLimits& lim = state.config.limits;
  // Shutdown latches: it is the entry into the persistent safe state, a
  // cooled-down die does not un-park the node.
  if (state.stage == ThermalStage::kShutdown) return ThermalStage::kShutdown;
  ThermalStage up = ThermalStage::kNormal;
  if (reading >= lim.shutdown_c) {
    up = ThermalStage::kShutdown;
  } else if (reading >= lim.derate_c) {
    up = ThermalStage::kDerate;
  } else if (reading >= lim.warn_c) {
    up = ThermalStage::kWarn;
  }
  if (up > state.stage) return up;
  // Downward transitions clear only past the hysteresis band, so a
  // reading jittering on a boundary does not flap the ladder.
  ThermalStage down = ThermalStage::kNormal;
  if (reading >= lim.shutdown_c - lim.hysteresis_c) {
    down = ThermalStage::kShutdown;
  } else if (reading >= lim.derate_c - lim.hysteresis_c) {
    down = ThermalStage::kDerate;
  } else if (reading >= lim.warn_c - lim.hysteresis_c) {
    down = ThermalStage::kWarn;
  }
  return down < state.stage ? down : state.stage;
}

void EnvironmentSupervisionUnit::enter_stage(ThermalState& state,
                                             ThermalStage next,
                                             sim::SimTime now) {
  const ThermalStage prev = state.stage;
  state.stage = next;
  if (!thermal_order_.empty() && thermal_order_.front() == state.config.id) {
    trace_ += ">";
    trace_ += to_string(next);
  }
  if (telemetry::enabled()) {
    telemetry::Event event;
    event.time = now;
    event.component = telemetry::Component::kEnvironmentUnit;
    event.kind = telemetry::EventKind::kDerateStageChange;
    event.runnable = state.config.id;
    event.task = state.config.task;
    event.application = state.config.application;
    event.detail = std::string(to_string(prev)) + "->" +
                   std::string(to_string(next)) +
                   " temp_c=" + std::to_string(state.last_c);
    telemetry::emit(std::move(event));
  }
  if (next > prev) {
    if (next == ThermalStage::kShutdown) {
      // Latch the safe state *before* reporting: the FMF must see the
      // parked node, not race a per-application treatment against it.
      if (shutdown_) shutdown_(now);
      report(state.config.id, state.config.task, state.config.application,
             ErrorType::kThermal, now,
             "thermal shutdown on " + state.config.name +
                 ": temp_c=" + std::to_string(state.last_c));
      ++state.reports;
      return;
    }
    report(state.config.id, state.config.task, state.config.application,
           ErrorType::kThermal, now,
           "thermal " + std::string(to_string(next)) + " on " +
               state.config.name + ": temp_c=" + std::to_string(state.last_c));
    ++state.reports;
    if (next == ThermalStage::kDerate && derate_enter_) derate_enter_(now);
    return;
  }
  // Downward: recovery is silent (the warn DTC ages out via the TSI's
  // healing), only the derate actuation is undone.
  if (prev >= ThermalStage::kDerate && next < ThermalStage::kDerate &&
      derate_exit_) {
    derate_exit_(now);
  }
}

void EnvironmentSupervisionUnit::cycle_thermal(ThermalState& state,
                                               sim::SimTime now) {
  const ThermalChannel& cfg = state.config;
  const ThermalLimits& lim = cfg.limits;
  const double reading = cfg.probe();

  const bool out_of_band =
      reading < lim.min_plausible_c || reading > lim.max_plausible_c;
  if (state.have_last &&
      std::abs(reading - state.last_c) <= lim.stuck_epsilon_c) {
    ++state.frozen_cycles;
  } else {
    state.frozen_cycles = 0;
  }
  state.last_c = reading;
  state.have_last = true;
  const bool stuck = state.frozen_cycles >= lim.stuck_cycles;
  state.invalid = out_of_band || stuck;

  // Freeze-frame feed: temperature and ladder stage are on the bus when
  // the FMF captures a DTC freeze frame.
  bus_.publish(state.temp_signal, reading, now);
  bus_.publish(state.stage_signal,
               static_cast<double>(static_cast<std::uint8_t>(state.stage)),
               now);

  if (state.invalid) {
    ++state.invalid_cycles;
    // Report per cycle until the precautionary derate is in place; once
    // treated, a continued stream would only fight the FMF's escalation.
    if (!state.precautionary_derate &&
        state.stage < ThermalStage::kDerate) {
      report(cfg.id, cfg.task, cfg.application, ErrorType::kThermal, now,
             std::string("thermal sensor ") +
                 (out_of_band ? "implausible" : "stuck") + " on " + cfg.name +
                 ": temp_c=" + std::to_string(reading));
      ++state.reports;
    }
    if (state.invalid_cycles >= lim.sensor_invalid_derate_cycles &&
        state.stage < ThermalStage::kDerate && !state.precautionary_derate) {
      // An ECU that cannot trust its temperature sensor assumes it is hot.
      state.precautionary_derate = true;
      enter_stage(state, ThermalStage::kDerate, now);
    }
    return;  // an invalid reading must not drive the ladder
  }
  state.invalid_cycles = 0;
  state.precautionary_derate = false;

  ThermalStage next = stage_for(state, reading);
  if (next > state.stage) {
    // Step one stage per cycle so even a step change in temperature walks
    // the ladder observably (warn -> derate -> shutdown, never a jump).
    next = static_cast<ThermalStage>(
        static_cast<std::uint8_t>(state.stage) + 1);
  }
  if (next != state.stage) enter_stage(state, next, now);
}

void EnvironmentSupervisionUnit::cycle_filesystem(FilesystemState& state,
                                                  sim::SimTime now) {
  const FilesystemChannel& cfg = state.config;
  const double fill = cfg.fill_probe ? cfg.fill_probe() : 0.0;
  const double wear = cfg.wear_probe ? cfg.wear_probe() : 0.0;
  const auto fill_pct =
      static_cast<std::uint64_t>(std::llround(fill * 100.0));
  const auto wear_pct =
      static_cast<std::uint64_t>(std::llround(wear * 100.0));
  state.last_fill_pct = fill_pct;
  state.last_wear_pct = wear_pct;

  bus_.publish(state.fill_signal, static_cast<double>(fill_pct), now);
  bus_.publish(state.wear_signal, static_cast<double>(wear_pct), now);

  // Write failures: wear-out or transient flash faults — immediate, a
  // failed journal write is already a visible failure.
  const std::uint64_t write_errors =
      cfg.write_error_probe ? cfg.write_error_probe() : 0;
  if (write_errors > state.last_write_errors) {
    const std::uint64_t delta = write_errors - state.last_write_errors;
    state.last_write_errors = write_errors;
    ++state.reports;
    report(cfg.id, cfg.task, cfg.application, ErrorType::kFilesystem, now,
           "nvm write errors on " + cfg.name + ": failed=" +
               std::to_string(delta) + " wear_pct=" +
               std::to_string(wear_pct));
    return;  // one report per channel per cycle is enough
  }
  state.last_write_errors = write_errors;

  // Overflow: the committed image no longer fits the bank. The FMF's
  // evict-by-priority degradation is the treatment; this is the detector.
  const std::uint64_t overflows =
      cfg.overflow_probe ? cfg.overflow_probe() : 0;
  if (overflows > state.last_overflows) {
    const std::uint64_t delta = overflows - state.last_overflows;
    state.last_overflows = overflows;
    ++state.reports;
    report(cfg.id, cfg.task, cfg.application, ErrorType::kFilesystem, now,
           "nvm journal overflow on " + cfg.name + ": overflows=" +
               std::to_string(delta) + " fill_pct=" +
               std::to_string(fill_pct));
    return;
  }
  state.last_overflows = overflows;

  // Fill watermark with transgression window (RSU watermark rule).
  if (cfg.limits.fill_watermark > 0.0 && fill >= cfg.limits.fill_watermark) {
    ++state.above_watermark;
    if (state.above_watermark >= cfg.limits.window_cycles) {
      ++state.reports;
      report(cfg.id, cfg.task, cfg.application, ErrorType::kFilesystem, now,
             "nvm fill watermark on " + cfg.name + ": fill_pct=" +
                 std::to_string(fill_pct));
      return;
    }
  } else {
    state.above_watermark = 0;
  }

  // Erase-cycle wear watermark: wear never heals, so this keeps reporting
  // (the DTC store deduplicates into one rising-occurrence entry).
  if (cfg.limits.wear_watermark > 0.0 && wear >= cfg.limits.wear_watermark) {
    ++state.reports;
    report(cfg.id, cfg.task, cfg.application, ErrorType::kFilesystem, now,
           "nvm erase-cycle wear on " + cfg.name + ": wear_pct=" +
               std::to_string(wear_pct));
  }
}

void EnvironmentSupervisionUnit::report(RunnableId id, TaskId task,
                                        ApplicationId app, ErrorType type,
                                        sim::SimTime now,
                                        std::string detail) {
  ++reports_;
  ErrorReport error;
  error.runnable = id;
  error.task = task;
  error.application = app;
  error.type = type;
  error.time = now;
  error.detail = std::move(detail);
  watchdog_.report_external_error(std::move(error));
}

ThermalStage EnvironmentSupervisionUnit::stage() const {
  if (thermal_order_.empty()) return ThermalStage::kNormal;
  return thermal_.at(thermal_order_.front()).stage;
}

ThermalStage EnvironmentSupervisionUnit::stage_of(RunnableId id) const {
  auto it = thermal_.find(id);
  return it == thermal_.end() ? ThermalStage::kNormal : it->second.stage;
}

double EnvironmentSupervisionUnit::temperature_c() const {
  if (thermal_order_.empty()) return 0.0;
  return thermal_.at(thermal_order_.front()).last_c;
}

bool EnvironmentSupervisionUnit::sensor_invalid() const {
  if (thermal_order_.empty()) return false;
  return thermal_.at(thermal_order_.front()).invalid;
}

std::uint64_t EnvironmentSupervisionUnit::flash_fill_pct() const {
  if (fs_order_.empty()) return 0;
  return filesystem_.at(fs_order_.front()).last_fill_pct;
}

std::uint64_t EnvironmentSupervisionUnit::flash_wear_pct() const {
  if (fs_order_.empty()) return 0;
  return filesystem_.at(fs_order_.front()).last_wear_pct;
}

std::uint64_t EnvironmentSupervisionUnit::reports_for(RunnableId id) const {
  if (auto it = thermal_.find(id); it != thermal_.end()) {
    return it->second.reports;
  }
  if (auto it = filesystem_.find(id); it != filesystem_.end()) {
    return it->second.reports;
  }
  return 0;
}

std::string EnvironmentSupervisionUnit::format_snapshot() const {
  std::ostringstream out;
  out << "environment snapshot (trace=" << trace_ << ")\n";
  for (RunnableId id : thermal_order_) {
    const ThermalState& state = thermal_.at(id);
    out << "  thermal " << state.config.name << " stage="
        << to_string(state.stage) << " temp_c=" << state.last_c
        << " invalid=" << (state.invalid ? 1 : 0)
        << " reports=" << state.reports << '\n';
  }
  for (RunnableId id : fs_order_) {
    const FilesystemState& state = filesystem_.at(id);
    out << "  filesystem " << state.config.name << " fill_pct="
        << state.last_fill_pct << " wear_pct=" << state.last_wear_pct
        << " write_errors=" << state.last_write_errors
        << " reports=" << state.reports << '\n';
  }
  return out.str();
}

}  // namespace easis::wdg
