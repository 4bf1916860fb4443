#include "apps/safespeed.hpp"

#include <algorithm>

#include "apps/monitor_hypothesis.hpp"

namespace easis::apps {

SafeSpeed::SafeSpeed(rte::Rte& rte, rte::SignalBus& signals, TaskId task,
                     SafeSpeedConfig config)
    : signals_(signals),
      config_(config),
      task_(task),
      speed_kmh_(signals.bind("vehicle.speed_kmh")),
      max_speed_kmh_(signals.bind(kMaxSpeedSignal)),
      driver_demand_(signals.bind("driver.demand")),
      speed_measured_(signals.bind("safespeed.speed_measured")),
      limit_(signals.bind("safespeed.limit")),
      drive_cmd_(signals.bind("actuator.drive_cmd")) {
  app_ = rte.register_application("SafeSpeed");
  const ComponentId component = rte.register_component(app_, "SpeedLimiter");
  auto& kernel = rte.kernel();

  if (config_.max_speed_deadline > sim::Duration::zero()) {
    rte::ReceptionPolicy policy;
    policy.deadline = config_.max_speed_deadline;
    policy.substitute = rte::SubstitutePolicy::kLimp;
    policy.default_value = config_.default_max_speed_kmh;
    policy.limp_value = config_.limp_max_speed_kmh;
    signals_.set_reception_policy(max_speed_kmh_, policy, kernel.now());
  }

  rte::RunnableSpec sensor_spec;
  sensor_spec.name = "GetSensorValue";
  sensor_spec.execution_time = config_.sensor_cost;
  sensor_spec.body = [this, &kernel] {
    const double speed = signals_.read_or(speed_kmh_, 0.0);
    signals_.publish(speed_measured_, speed, kernel.now());
  };
  sensor_ = rte.register_runnable(component, std::move(sensor_spec));

  rte::RunnableSpec control_spec;
  control_spec.name = "SAFE_CC_process";
  control_spec.execution_time = config_.control_cost;
  control_spec.body = [this, &kernel] {
    if (limp_home_) {
      // Degraded mode: fixed conservative limit, measurement distrusted.
      signals_.publish(limit_, kLimpHomeLimit, kernel.now());
      return;
    }
    const double measured = signals_.read_or(speed_measured_, 0.0);
    const auto command = signals_.read_qualified(
        max_speed_kmh_, kernel.now(), config_.default_max_speed_kmh);
    max_speed_qualifier_ = command.qualifier;
    effective_max_speed_ = command.value;
    const double max_kmh = command.value;
    // Proportional limiter: full authority below the limit, throttling to
    // zero (and into braking) as the limit is approached/exceeded.
    const double margin = max_kmh - measured;
    const double limit = std::clamp(config_.kp * margin, -0.3, 1.0);
    signals_.publish(limit_, limit, kernel.now());
  };
  control_ = rte.register_runnable(component, std::move(control_spec));

  rte::RunnableSpec actuator_spec;
  actuator_spec.name = "Speed_process";
  actuator_spec.execution_time = config_.actuator_cost;
  actuator_spec.body = [this, &kernel] {
    const double demand = signals_.read_or(driver_demand_, 0.0);
    const double limit = signals_.read_or(limit_, 1.0);
    const double cmd = std::min(demand, limit);
    signals_.publish(drive_cmd_, cmd, kernel.now());
  };
  actuator_ = rte.register_runnable(component, std::move(actuator_spec));

  rte.map_runnable(sensor_, task_);
  rte.map_runnable(control_, task_);
  rte.map_runnable(actuator_, task_);
}

void SafeSpeed::configure_watchdog(wdg::SoftwareWatchdog& watchdog) const {
  const sim::Duration check = watchdog.config().check_period;
  watchdog.add_runnable(derive_monitor(sensor_, task_, app_, "GetSensorValue",
                                       config_.period, check));
  watchdog.add_runnable(derive_monitor(control_, task_, app_,
                                       "SAFE_CC_process", config_.period,
                                       check));
  watchdog.add_runnable(derive_monitor(actuator_, task_, app_,
                                       "Speed_process", config_.period,
                                       check));
  // Permitted execution sequence: sensor -> control -> actuator, repeating.
  watchdog.add_flow_entry_point(sensor_);
  watchdog.add_flow_edge(sensor_, control_);
  watchdog.add_flow_edge(control_, actuator_);
  watchdog.add_flow_edge(actuator_, sensor_);
  // Deadline supervision: from the sensor sample to the actuator command.
  // Nominal control+actuation is ~0.55 ms; 1 ms leaves headroom for the
  // watchdog's own preemption while catching multi-x slowdowns that keep
  // the heartbeat rate intact.
  wdg::DeadlinePair pair;
  pair.name = "sensor_to_actuator";
  pair.start = sensor_;
  pair.end = actuator_;
  pair.min = sim::Duration::zero();
  pair.max = sim::Duration::millis(1);
  watchdog.add_deadline_pair(pair);
}

}  // namespace easis::apps
