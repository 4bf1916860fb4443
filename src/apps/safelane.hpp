// SafeLane application (paper §4.1): lane departure warning.
//
// Three runnables in sequence on one task:
//   AcquireLanePosition - reads the camera's lateral-offset signal
//   DetectDeparture     - departure detection with hysteresis
//   WarnActuator        - drives the HMI warning output
//
// Signals:
//   in : lane.offset_m        - lateral offset from the environment model
//   out: safelane.offset      - sampled offset
//        safelane.warning     - 1 while a departure is detected
//        hmi.lane_warning     - actuator output (mirrors the warning)
#pragma once

#include "rte/rte.hpp"
#include "rte/signal_bus.hpp"
#include "wdg/watchdog.hpp"

namespace easis::apps {

struct SafeLaneConfig {
  sim::Duration period = sim::Duration::millis(20);
  /// Warning asserts above this |offset| and clears below release.
  double assert_threshold_m = 1.2;
  double release_threshold_m = 0.9;
  sim::Duration acquire_cost = sim::Duration::micros(200);
  sim::Duration detect_cost = sim::Duration::micros(300);
  sim::Duration warn_cost = sim::Duration::micros(100);
};

class SafeLane {
 public:
  SafeLane(rte::Rte& rte, rte::SignalBus& signals, TaskId task,
           SafeLaneConfig config = {});

  [[nodiscard]] ApplicationId application() const { return app_; }
  [[nodiscard]] TaskId task() const { return task_; }
  [[nodiscard]] RunnableId acquire_lane_position() const { return acquire_; }
  [[nodiscard]] RunnableId detect_departure() const { return detect_; }
  [[nodiscard]] RunnableId warn_actuator() const { return warn_; }
  [[nodiscard]] const SafeLaneConfig& config() const { return config_; }
  [[nodiscard]] bool warning_active() const { return warning_; }

  void configure_watchdog(wdg::SoftwareWatchdog& watchdog) const;

 private:
  rte::SignalBus& signals_;
  SafeLaneConfig config_;
  ApplicationId app_;
  TaskId task_;
  rte::SignalHandle lane_offset_;
  rte::SignalHandle offset_;
  rte::SignalHandle warning_signal_;
  rte::SignalHandle hmi_warning_;
  RunnableId acquire_;
  RunnableId detect_;
  RunnableId warn_;
  bool warning_ = false;
};

}  // namespace easis::apps
