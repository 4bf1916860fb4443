// RailMon application: a duty-cycled condition-monitoring sensor node
// (the simuVSInsightRail profile the power-mode subsystem exists for).
//
// Two components on two tasks:
//
//   DutyCycler / DutyCycleControl   - always-on controller (RTC domain):
//     drives the declared duty cycle Run -> FlashWrite -> Sleep ->
//     WakeBurst -> Run through PowerModeManager::request() on dwell
//     thresholds. Heartbeats in every mode.
//
//   AcquisitionChain / SampleSensor + UplinkProcess - the duty-cycled
//     sensing path: samples vibration into a bounded journal, commits the
//     journal during FlashWrite windows, and uplinks the committed backlog
//     (store-and-forward) while awake. The hosting task's alarm is
//     cancelled during Sleep — its heartbeats stop *by contract* — and
//     re-armed at burst rate for the WakeBurst storm.
//
// Signals (SignalBus):
//   in : env.vibration           - sensed quantity (defaults to 0)
//   out: railmon.journal_depth   - uncommitted samples in the journal
//        railmon.committed       - flash-committed, not yet uplinked
//        railmon.uplinked        - total samples uplinked (cumulative)
//
// Fault-injection surface: set_wake_suppressed (stuck-in-sleep),
// set_burst_stuck (wake-storm overrun), set_flash_stuck (flash-write
// overrun), set_duty_hold (safe state: stop driving the cycle).
#pragma once

#include <cstdint>
#include <string>

#include "mode/power_mode.hpp"
#include "rte/rte.hpp"
#include "rte/signal_bus.hpp"
#include "wdg/watchdog.hpp"

namespace easis::apps {

struct RailMonConfig {
  /// Activation period of the always-on controller task.
  sim::Duration control_period = sim::Duration::millis(10);
  /// Nominal sensing period (Run/Idle/FlashWrite modes).
  sim::Duration sample_period = sim::Duration::millis(10);
  /// Burst sensing period during WakeBurst (the wake storm).
  sim::Duration burst_period = sim::Duration::millis(2);
  /// Dwell thresholds of the duty cycle (controller requests the next
  /// mode once the current one's dwell is reached).
  sim::Duration run_dwell = sim::Duration::millis(500);
  sim::Duration flash_dwell = sim::Duration::millis(100);
  sim::Duration sleep_dwell = sim::Duration::millis(600);
  sim::Duration burst_dwell = sim::Duration::millis(200);
  sim::Duration control_cost = sim::Duration::micros(80);
  sim::Duration sensor_cost = sim::Duration::micros(120);
  sim::Duration uplink_cost = sim::Duration::micros(200);
  /// Journal capacity; samples beyond it are dropped (and counted).
  std::uint32_t journal_capacity = 256;
  /// Committed samples uplinked per UplinkProcess execution.
  std::uint32_t uplink_batch = 4;
};

class RailMon {
 public:
  /// Registers the application model: the controller runnable on
  /// `control_task`, the sensing chain on `sensor_task`. The caller owns
  /// both tasks and their (mode-dependent) periodic activation.
  RailMon(rte::Rte& rte, rte::SignalBus& signals,
          mode::PowerModeManager& manager, TaskId control_task,
          TaskId sensor_task, RailMonConfig config = {});

  [[nodiscard]] ApplicationId application() const { return app_; }
  [[nodiscard]] TaskId control_task() const { return control_task_; }
  [[nodiscard]] TaskId sensor_task() const { return sensor_task_; }
  [[nodiscard]] RunnableId duty_cycle_control() const { return control_; }
  [[nodiscard]] RunnableId sample_sensor() const { return sensor_; }
  [[nodiscard]] RunnableId uplink_process() const { return uplink_; }
  [[nodiscard]] const RailMonConfig& config() const { return config_; }

  /// Registers the always-on controller hypothesis, the flow table of the
  /// sensing chain and the sample->uplink deadline pair. The sensing
  /// chain's *base* (Run-mode) hypotheses are registered too; bind them to
  /// a ModeSupervisionUnit so the active mode overlay rebinds them.
  void configure_watchdog(wdg::SoftwareWatchdog& watchdog) const;

  /// Run-mode fault hypotheses of the duty-cycled runnables, for
  /// ModeSupervisionUnit::bind().
  [[nodiscard]] wdg::RunnableMonitor sensor_monitor_base(
      sim::Duration check_period) const;
  [[nodiscard]] wdg::RunnableMonitor uplink_monitor_base(
      sim::Duration check_period) const;

  /// Flash-write window: commits the journal (store-and-forward handover
  /// to the uplink backlog). Called by the node on FlashWrite entry.
  void commit_journal(sim::SimTime now);

  // --- telemetry counters ----------------------------------------------------
  [[nodiscard]] std::uint32_t journal_depth() const { return journal_depth_; }
  [[nodiscard]] std::uint64_t journal_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t committed_backlog() const { return committed_; }
  [[nodiscard]] std::uint64_t uplinked() const { return uplinked_; }
  [[nodiscard]] std::uint64_t samples_taken() const { return samples_; }

  // --- fault-injection surface -----------------------------------------------
  /// The controller never issues the Sleep -> WakeBurst wake request
  /// (a dead wake timer: the node is stuck in deep sleep).
  void set_wake_suppressed(bool suppressed) { wake_suppressed_ = suppressed; }
  /// The WakeBurst -> Run request is never issued (the burst never ends).
  void set_burst_stuck(bool stuck) { burst_stuck_ = stuck; }
  /// The FlashWrite -> Sleep request is never issued (flash busy forever).
  void set_flash_stuck(bool stuck) { flash_stuck_ = stuck; }
  /// Safe state: the controller stops driving the duty cycle entirely.
  void set_duty_hold(bool hold) { duty_hold_ = hold; }
  [[nodiscard]] bool duty_hold() const { return duty_hold_; }

 private:
  rte::SignalBus& signals_;
  mode::PowerModeManager& manager_;
  RailMonConfig config_;
  rte::SignalHandle vibration_;
  rte::SignalHandle journal_depth_signal_;
  rte::SignalHandle committed_signal_;
  rte::SignalHandle uplinked_signal_;
  ApplicationId app_;
  TaskId control_task_;
  TaskId sensor_task_;
  RunnableId control_;
  RunnableId sensor_;
  RunnableId uplink_;
  std::uint32_t journal_depth_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t uplinked_ = 0;
  std::uint64_t samples_ = 0;
  bool wake_suppressed_ = false;
  bool burst_stuck_ = false;
  bool flash_stuck_ = false;
  bool duty_hold_ = false;

  void drive_duty_cycle(sim::SimTime now);
};

}  // namespace easis::apps
