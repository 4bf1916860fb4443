#include "apps/lightctl.hpp"

#include "apps/monitor_hypothesis.hpp"

namespace easis::apps {

LightControl::LightControl(rte::Rte& rte, rte::SignalBus& signals,
                           TaskId task, LightControlConfig config)
    : signals_(signals),
      config_(config),
      task_(task),
      ambient_light_(signals.bind("env.ambient_light")),
      ambient_(signals.bind("light.ambient")),
      headlamps_(signals.bind("light.headlamps")) {
  app_ = rte.register_application("LightControl");
  const ComponentId component = rte.register_component(app_, "Headlamps");
  auto& kernel = rte.kernel();

  rte::RunnableSpec read_spec;
  read_spec.name = "ReadAmbient";
  read_spec.execution_time = config_.read_cost;
  read_spec.safety_critical = false;
  read_spec.body = [this, &kernel] {
    signals_.publish(ambient_, signals_.read_or(ambient_light_, 1.0),
                     kernel.now());
  };
  read_ = rte.register_runnable(component, std::move(read_spec));

  rte::RunnableSpec control_spec;
  control_spec.name = "ControlLights";
  control_spec.execution_time = config_.control_cost;
  control_spec.safety_critical = false;
  control_spec.body = [this, &kernel] {
    const double ambient = signals_.read_or(ambient_, 1.0);
    if (!headlamps_on_ && ambient <= config_.ambient_on_threshold) {
      headlamps_on_ = true;
    } else if (headlamps_on_ && ambient >= config_.ambient_off_threshold) {
      headlamps_on_ = false;
    }
    signals_.publish(headlamps_, headlamps_on_ ? 1.0 : 0.0, kernel.now());
  };
  control_ = rte.register_runnable(component, std::move(control_spec));

  rte.map_runnable(read_, task_);
  rte.map_runnable(control_, task_);
}

void LightControl::configure_watchdog(wdg::SoftwareWatchdog& watchdog) const {
  const sim::Duration check = watchdog.config().check_period;
  // Heartbeat monitoring only: program_flow=false keeps these runnables
  // out of the look-up table (paper §3.2.2: only safety-critical runnables
  // are flow-monitored).
  watchdog.add_runnable(derive_monitor(read_, task_, app_, "ReadAmbient",
                                       config_.period, check,
                                       /*program_flow=*/false));
  watchdog.add_runnable(derive_monitor(control_, task_, app_,
                                       "ControlLights", config_.period, check,
                                       /*program_flow=*/false));
}

}  // namespace easis::apps
