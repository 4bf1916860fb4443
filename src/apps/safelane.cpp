#include "apps/safelane.hpp"

#include <cmath>

#include "apps/monitor_hypothesis.hpp"

namespace easis::apps {

SafeLane::SafeLane(rte::Rte& rte, rte::SignalBus& signals, TaskId task,
                   SafeLaneConfig config)
    : signals_(signals),
      config_(config),
      task_(task),
      lane_offset_(signals.bind("lane.offset_m")),
      offset_(signals.bind("safelane.offset")),
      warning_signal_(signals.bind("safelane.warning")),
      hmi_warning_(signals.bind("hmi.lane_warning")) {
  app_ = rte.register_application("SafeLane");
  const ComponentId component =
      rte.register_component(app_, "DepartureWarning");
  auto& kernel = rte.kernel();

  rte::RunnableSpec acquire_spec;
  acquire_spec.name = "AcquireLanePosition";
  acquire_spec.execution_time = config_.acquire_cost;
  acquire_spec.body = [this, &kernel] {
    const double offset = signals_.read_or(lane_offset_, 0.0);
    signals_.publish(offset_, offset, kernel.now());
  };
  acquire_ = rte.register_runnable(component, std::move(acquire_spec));

  rte::RunnableSpec detect_spec;
  detect_spec.name = "DetectDeparture";
  detect_spec.execution_time = config_.detect_cost;
  detect_spec.body = [this, &kernel] {
    const double offset = std::abs(signals_.read_or(offset_, 0.0));
    if (!warning_ && offset >= config_.assert_threshold_m) {
      warning_ = true;
    } else if (warning_ && offset <= config_.release_threshold_m) {
      warning_ = false;
    }
    signals_.publish(warning_signal_, warning_ ? 1.0 : 0.0, kernel.now());
  };
  detect_ = rte.register_runnable(component, std::move(detect_spec));

  rte::RunnableSpec warn_spec;
  warn_spec.name = "WarnActuator";
  warn_spec.execution_time = config_.warn_cost;
  warn_spec.body = [this, &kernel] {
    signals_.publish(hmi_warning_, signals_.read_or(warning_signal_, 0.0),
                     kernel.now());
  };
  warn_ = rte.register_runnable(component, std::move(warn_spec));

  rte.map_runnable(acquire_, task_);
  rte.map_runnable(detect_, task_);
  rte.map_runnable(warn_, task_);
}

void SafeLane::configure_watchdog(wdg::SoftwareWatchdog& watchdog) const {
  const sim::Duration check = watchdog.config().check_period;
  watchdog.add_runnable(derive_monitor(acquire_, task_, app_,
                                       "AcquireLanePosition", config_.period,
                                       check));
  watchdog.add_runnable(derive_monitor(detect_, task_, app_,
                                       "DetectDeparture", config_.period,
                                       check));
  watchdog.add_runnable(derive_monitor(warn_, task_, app_, "WarnActuator",
                                       config_.period, check));
  watchdog.add_flow_entry_point(acquire_);
  watchdog.add_flow_edge(acquire_, detect_);
  watchdog.add_flow_edge(detect_, warn_);
  watchdog.add_flow_edge(warn_, acquire_);
}

}  // namespace easis::apps
