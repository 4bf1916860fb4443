// Crash detection / emergency notification application.
//
// Exercises the platform's event-driven path end to end: a crash-sensor
// interrupt (category-2 ISR) sets an OSEK event; an extended task wakes,
// runs DetectCrash and NotifyTelematics, then chains itself back to the
// wait point. For the watchdog this is the sporadic-runnable case: the
// fault hypothesis monitors the arrival *rate* only (a crash handler that
// fires too often is as wrong as one that hangs), aliveness is disabled.
#pragma once

#include "os/kernel.hpp"
#include "rte/rte.hpp"
#include "rte/signal_bus.hpp"
#include "wdg/watchdog.hpp"

namespace easis::apps {

struct CrashDetectionConfig {
  /// Acceleration magnitude treated as a crash.
  double threshold_g = 4.0;
  sim::Duration isr_cost = sim::Duration::micros(10);
  sim::Duration detect_cost = sim::Duration::micros(300);
  sim::Duration notify_cost = sim::Duration::micros(500);
  /// Arrival-rate hypothesis: window length in watchdog cycles.
  std::uint32_t arrival_cycles = 10;
  /// Crash events tolerated per window.
  std::uint32_t max_arrivals = 2;
};

class CrashDetection {
 public:
  /// Registers the application and creates its extended task (priority
  /// `priority`) plus the crash-sensor ISR. The task is activated at
  /// start() and then waits for crash events indefinitely.
  CrashDetection(rte::Rte& rte, rte::SignalBus& signals,
                 os::Priority priority, CrashDetectionConfig config = {});

  /// Call after kernel start: activates the waiting server task.
  void start();

  /// Simulates the crash sensor firing (scenario/environment hook).
  /// The ISR reads "sensor.accel_g" from the signal bus.
  void trigger_sensor();

  [[nodiscard]] ApplicationId application() const { return app_; }
  [[nodiscard]] TaskId task() const { return task_; }
  [[nodiscard]] TaskId isr() const { return isr_; }
  [[nodiscard]] RunnableId detect_crash() const { return detect_; }
  [[nodiscard]] RunnableId notify_telematics() const { return notify_; }
  [[nodiscard]] std::uint32_t crashes_detected() const { return crashes_; }
  [[nodiscard]] std::uint32_t notifications_sent() const { return notices_; }

  void configure_watchdog(wdg::SoftwareWatchdog& watchdog) const;

  static constexpr os::EventMask kCrashEvent = 0x1;

 private:
  rte::Rte& rte_;
  rte::SignalBus& signals_;
  os::Kernel& kernel_;
  CrashDetectionConfig config_;
  rte::SignalHandle accel_g_;
  rte::SignalHandle crash_detected_;
  rte::SignalHandle crash_notify_;
  ApplicationId app_;
  TaskId task_;
  TaskId isr_;
  RunnableId detect_;
  RunnableId notify_;
  std::uint32_t crashes_ = 0;
  std::uint32_t notices_ = 0;
  bool crash_pending_ = false;
};

}  // namespace easis::apps
