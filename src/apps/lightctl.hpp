// Light control application (paper §4.1 mentions a light control node).
//
// A deliberately non-safety-critical application sharing the platform:
// its runnables are heartbeat-monitored but excluded from program flow
// checking, exercising the watchdog's per-runnable configurability.
#pragma once

#include "rte/rte.hpp"
#include "rte/signal_bus.hpp"
#include "wdg/watchdog.hpp"

namespace easis::apps {

struct LightControlConfig {
  sim::Duration period = sim::Duration::millis(50);
  double ambient_on_threshold = 0.3;   // headlamps on below this
  double ambient_off_threshold = 0.5;  // off above this (hysteresis)
  sim::Duration read_cost = sim::Duration::micros(80);
  sim::Duration control_cost = sim::Duration::micros(120);
};

class LightControl {
 public:
  LightControl(rte::Rte& rte, rte::SignalBus& signals, TaskId task,
               LightControlConfig config = {});

  [[nodiscard]] ApplicationId application() const { return app_; }
  [[nodiscard]] TaskId task() const { return task_; }
  [[nodiscard]] RunnableId read_ambient() const { return read_; }
  [[nodiscard]] RunnableId control_lights() const { return control_; }
  [[nodiscard]] bool headlamps_on() const { return headlamps_on_; }

  void configure_watchdog(wdg::SoftwareWatchdog& watchdog) const;

 private:
  rte::SignalBus& signals_;
  LightControlConfig config_;
  ApplicationId app_;
  TaskId task_;
  rte::SignalHandle ambient_light_;
  rte::SignalHandle ambient_;
  rte::SignalHandle headlamps_;
  RunnableId read_;
  RunnableId control_;
  bool headlamps_on_ = false;
};

}  // namespace easis::apps
