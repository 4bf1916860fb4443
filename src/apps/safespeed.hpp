// SafeSpeed application (paper §4.1, Figure 4).
//
// Limits the vehicle speed to an externally commanded maximum. Three
// runnables executed in a fixed sequence on one task:
//   GetSensorValue  - sensor value reading (vehicle speed)
//   SAFE_CC_process - the control algorithm (speed-limiting controller)
//   Speed_process   - setting of the actuator (drive command)
//
// Signals (SignalBus):
//   in : vehicle.speed_kmh        - from the environment/sensor node
//        safespeed.max_speed_kmh  - externally commanded limit (gateway)
//        driver.demand            - driver accelerator demand [0,1]
//   out: safespeed.speed_measured - sampled speed
//        safespeed.limit          - limiter output [0,1]
//        actuator.drive_cmd       - final drive command [-1,1]
#pragma once

#include <string>

#include "rte/rte.hpp"
#include "rte/signal_bus.hpp"
#include "wdg/watchdog.hpp"

namespace easis::apps {

struct SafeSpeedConfig {
  /// Activation period of the hosting task (used for the fault hypothesis).
  sim::Duration period = sim::Duration::millis(10);
  /// Proportional gain of the limiting controller (per km/h of margin).
  double kp = 0.08;
  /// Limit applied when no external command was received yet.
  double default_max_speed_kmh = 250.0;
  sim::Duration sensor_cost = sim::Duration::micros(150);
  sim::Duration control_cost = sim::Duration::micros(400);
  sim::Duration actuator_cost = sim::Duration::micros(150);
  /// Reception deadline for the commanded max speed. Zero (default)
  /// disables network-degradation handling; when set, a stale or invalid
  /// command degrades the limit to `limp_max_speed_kmh` instead of
  /// trusting old data.
  sim::Duration max_speed_deadline = sim::Duration::zero();
  /// Substitute limit applied while the command signal is degraded.
  double limp_max_speed_kmh = 60.0;
};

class SafeSpeed {
 public:
  /// Registers the application model and maps the runnables, in order,
  /// onto `task`. The caller owns the task and its periodic activation.
  SafeSpeed(rte::Rte& rte, rte::SignalBus& signals, TaskId task,
            SafeSpeedConfig config = {});

  [[nodiscard]] ApplicationId application() const { return app_; }
  [[nodiscard]] TaskId task() const { return task_; }
  [[nodiscard]] RunnableId get_sensor_value() const { return sensor_; }
  [[nodiscard]] RunnableId safe_cc_process() const { return control_; }
  [[nodiscard]] RunnableId speed_process() const { return actuator_; }
  [[nodiscard]] const SafeSpeedConfig& config() const { return config_; }

  /// Registers the application's fault hypothesis and program-flow
  /// look-up table with the watchdog.
  void configure_watchdog(wdg::SoftwareWatchdog& watchdog) const;

  /// Limp-home (degraded) mode: the controller distrusts the measurement
  /// chain and commands a fixed conservative drive limit instead of the
  /// closed-loop limiter. Used as the FMF's dynamic-reconfiguration target.
  void set_limp_home(bool limp) { limp_home_ = limp; }
  [[nodiscard]] bool limp_home() const { return limp_home_; }
  /// Drive limit applied while in limp-home mode.
  static constexpr double kLimpHomeLimit = 0.15;

  /// Max-speed value the controller actually used on its last execution
  /// (after qualifier-based substitution).
  [[nodiscard]] double effective_max_speed() const {
    return effective_max_speed_;
  }
  /// Qualifier of the max-speed command at the last controller execution.
  [[nodiscard]] rte::SignalQualifier max_speed_qualifier() const {
    return max_speed_qualifier_;
  }

  /// Signal carrying the externally commanded maximum speed.
  static constexpr const char* kMaxSpeedSignal = "safespeed.max_speed_kmh";

 private:
  rte::SignalBus& signals_;
  SafeSpeedConfig config_;
  ApplicationId app_;
  TaskId task_;
  rte::SignalHandle speed_kmh_;
  rte::SignalHandle max_speed_kmh_;
  rte::SignalHandle driver_demand_;
  rte::SignalHandle speed_measured_;
  rte::SignalHandle limit_;
  rte::SignalHandle drive_cmd_;
  RunnableId sensor_;
  RunnableId control_;
  RunnableId actuator_;
  bool limp_home_ = false;
  double effective_max_speed_ = 0.0;
  rte::SignalQualifier max_speed_qualifier_ = rte::SignalQualifier::kValid;
};

}  // namespace easis::apps
