#include "apps/crash_detection.hpp"

namespace easis::apps {

CrashDetection::CrashDetection(rte::Rte& rte, rte::SignalBus& signals,
                               os::Priority priority,
                               CrashDetectionConfig config)
    : rte_(rte),
      signals_(signals),
      kernel_(rte.kernel()),
      config_(config),
      accel_g_(signals.bind("sensor.accel_g")),
      crash_detected_(signals.bind("crash.detected")),
      crash_notify_(signals.bind("telematics.crash_notify")) {
  app_ = rte_.register_application("CrashDetection");
  const ComponentId component =
      rte_.register_component(app_, "EmergencyNotifier");

  os::TaskConfig task_config;
  task_config.name = "Task_CrashDetection";
  task_config.priority = priority;
  task_config.extended = true;
  task_ = kernel_.create_task(task_config);

  rte::RunnableSpec detect_spec;
  detect_spec.name = "DetectCrash";
  detect_spec.execution_time = config_.detect_cost;
  detect_spec.body = [this] {
    const double accel = signals_.read_or(accel_g_, 0.0);
    crash_pending_ = accel >= config_.threshold_g;
    if (crash_pending_) {
      ++crashes_;
      signals_.publish(crash_detected_, static_cast<double>(crashes_),
                       kernel_.now());
    }
  };
  detect_ = rte_.register_runnable(component, std::move(detect_spec));

  rte::RunnableSpec notify_spec;
  notify_spec.name = "NotifyTelematics";
  notify_spec.execution_time = config_.notify_cost;
  notify_spec.body = [this] {
    if (!crash_pending_) return;
    crash_pending_ = false;
    ++notices_;
    signals_.publish(crash_notify_, static_cast<double>(notices_),
                     kernel_.now());
  };
  notify_ = rte_.register_runnable(component, std::move(notify_spec));

  rte_.map_runnable(detect_, task_);
  rte_.map_runnable(notify_, task_);
  rte_.configure_task_execution(
      task_, rte::Rte::TaskExecutionConfig{kCrashEvent, /*chain_self=*/true});

  isr_ = kernel_.create_isr("CrashSensorIrq", config_.isr_cost, [this] {
    kernel_.set_event(task_, kCrashEvent);
  });
}

void CrashDetection::start() { kernel_.activate_task(task_); }

void CrashDetection::trigger_sensor() { kernel_.trigger_isr(isr_); }

void CrashDetection::configure_watchdog(
    wdg::SoftwareWatchdog& watchdog) const {
  // Sporadic runnables: aliveness monitoring off, arrival rate bounded
  // (a crash handler storm is a fault), flow checked within each episode.
  for (const auto& [runnable, name] :
       {std::pair{detect_, "DetectCrash"},
        std::pair{notify_, "NotifyTelematics"}}) {
    wdg::RunnableMonitor m;
    m.runnable = runnable;
    m.task = task_;
    m.application = app_;
    m.name = name;
    m.monitor_aliveness = false;
    m.aliveness_cycles = 1;
    m.min_heartbeats = 0;
    m.monitor_arrival_rate = true;
    m.arrival_cycles = config_.arrival_cycles;
    m.max_arrivals = config_.max_arrivals;
    m.program_flow = true;
    watchdog.add_runnable(m);
  }
  watchdog.add_flow_entry_point(detect_);
  watchdog.add_flow_edge(detect_, notify_);
  watchdog.add_flow_edge(notify_, detect_);
}

}  // namespace easis::apps
