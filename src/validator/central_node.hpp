// Central node of the EASIS architecture validator (paper §4.2).
//
// The substitute for the dSPACE AutoBox: hosts the SafeSpeed safety
// application (and optionally SafeLane and LightControl), the Software
// Watchdog service, the Fault Management Framework, and the environment
// simulation (vehicle dynamics + lane geometry) closing the loop.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/crash_detection.hpp"
#include "apps/lightctl.hpp"
#include "diag/server.hpp"
#include "apps/safelane.hpp"
#include "apps/safespeed.hpp"
#include "fmf/fmf.hpp"
#include "fmf/nvm.hpp"
#include "os/schedule_table.hpp"
#include "policy/check_engine.hpp"
#include "policy/policy.hpp"
#include "rte/ecu.hpp"
#include "sim/engine.hpp"
#include "sim/lane.hpp"
#include "sim/thermal.hpp"
#include "sim/vehicle.hpp"
#include "wdg/env_monitor.hpp"
#include "wdg/process_supervisor.hpp"
#include "wdg/resource_monitor.hpp"
#include "wdg/self_supervision.hpp"
#include "wdg/service.hpp"
#include "wdg/watchdog.hpp"

namespace easis::validator {

struct CentralNodeConfig {
  wdg::WatchdogConfig watchdog;
  wdg::ServiceConfig watchdog_service;
  apps::SafeSpeedConfig safespeed;
  apps::SafeLaneConfig safelane;
  apps::LightControlConfig light;
  bool with_safelane = true;
  bool with_light_control = true;
  bool with_crash_detection = true;
  apps::CrashDetectionConfig crash;
  os::Priority crash_priority = 70;
  bool with_fmf = true;
  fmf::FmfConfig fmf;
  /// Reset-safe fault memory: DTC store, reset counters and the reset
  /// cause are committed to the simulated NVM before every reset and
  /// re-seeded at the next boot (requires with_fmf).
  bool with_nvm = true;
  std::size_t nvm_capacity = 8192;
  /// Shared NVM block (e.g. across a simulated power cycle: a second
  /// CentralNode instance constructed over the same store). When set, the
  /// node does not own an NvmStore of its own.
  fmf::NvmStore* external_nvm = nullptr;
  /// Bounds the DTC store (0 = unbounded).
  std::size_t dtc_capacity = 0;
  /// Additional SignalBus signals captured into every DTC freeze frame
  /// (e.g. the `res.<name>.level` signals the Resource Supervision Unit
  /// publishes, so resource DTCs carry the offending task's snapshot).
  std::vector<std::string> extra_frame_signals;
  /// Watchdog self-supervision: the SW watchdog services a windowed HW
  /// watchdog via challenge–response; expiry funnels into the FMF reset
  /// path with a ResetSource::kHardwareWatchdog cause.
  bool with_self_supervision = true;
  /// hw_timeout is raised to at least 5x the watchdog check period so
  /// sweeping the check period never causes spurious expirations.
  wdg::SelfSupervisionConfig self_supervision;
  /// Models the physical reboot blackout of an ECU software reset: the
  /// kernel is torn down immediately and boots again this much later
  /// (environment keeps its state; the control loop is dark). Zero keeps
  /// the synchronous reset of the seed.
  sim::Duration reboot_delay = sim::Duration::zero();
  /// Environment integration step (vehicle + lane models).
  sim::Duration environment_step = sim::Duration::millis(5);
  /// Thermal environment: junction-temperature model parameters. The model
  /// is stepped with the environment loop; its load input comes from the
  /// Resource Supervision Unit when attached (idle otherwise).
  sim::ThermalParams thermal;
  /// Limits of the node's ECU thermal channel (environment supervision).
  wdg::ThermalLimits thermal_limits;
  /// Limits of the node's fault-memory journal channel.
  wdg::FilesystemLimits filesystem_limits;
  /// HBM stretch factor applied to the aliveness/arrival hypotheses of the
  /// still-monitored runnables while the thermal ladder derates: a node
  /// slowed down by thermal stress must not look like dead runnables.
  std::uint32_t derate_hbm_stretch = 2;
  /// Compiled dependability policy. When set, the constructor applies the
  /// runtime bindings the flat config members cannot express: per-role FMF
  /// treatment (SafeSpeed -> safety, SafeLane -> assist, LightControl and
  /// CrashDetection -> qm), the HBM period scale/tolerances, and the
  /// deadline window scale; attach_check_supervision() registers the
  /// policy's check rules. Use validator::apply_policy() to also copy the
  /// config-level tunables (watchdog, fmf, thermal, filesystem) — setting
  /// only this member binds the runtime knobs over whatever config the
  /// caller assembled. The built-in baseline policy is a behavioural no-op.
  std::shared_ptr<const policy::PolicySet> policy;
  os::Priority safespeed_priority = 50;
  os::Priority safelane_priority = 40;
  os::Priority light_priority = 10;
  /// OSEKTime-style dispatching: application tasks are activated from a
  /// time-triggered schedule table instead of individual alarms (the
  /// watchdog service keeps its own alarm). The table round is the LCM of
  /// the application periods.
  bool time_triggered = false;
};

class CentralNode {
 public:
  CentralNode(sim::Engine& engine, CentralNodeConfig config = {});
  CentralNode(const CentralNode&) = delete;
  CentralNode& operator=(const CentralNode&) = delete;

  /// Boots the node: finalizes the RTE (once), starts the kernel, arms the
  /// application and watchdog alarms, and starts the environment loop.
  void start();

  /// ECU software reset treatment (also wired into the FMF).
  void software_reset();
  [[nodiscard]] std::uint32_t resets_performed() const { return resets_; }
  /// Resets triggered by the hardware watchdog (self-supervision layer).
  [[nodiscard]] std::uint32_t hw_watchdog_resets() const {
    return hw_resets_;
  }
  /// True while the node sits in the latched limp-home/safe state.
  [[nodiscard]] bool in_safe_state() const { return safe_state_; }
  /// True during the reboot blackout of a delayed software reset.
  [[nodiscard]] bool rebooting() const { return rebooting_; }
  /// Drives the node into its limp-home/safe state: SafeSpeed switches to
  /// the limp-home limit, the comfort/assist applications are disabled and
  /// their monitoring deactivated. Wired into the FMF reboot-storm latch.
  void enter_safe_state(const fmf::ResetCause& cause);

  /// Attaches a UDS-lite diagnostic server on `can`, backed by this node's
  /// DTC store, FMF and watchdog. A commanded ECUReset funnels through
  /// software_reset(); during the reboot blackout the server is offline
  /// (requests are dropped, exactly like the rest of the node). The bus
  /// must outlive the node. Returns the server for DID registration.
  diag::DiagServer& attach_diag(bus::CanBus& can,
                                diag::DiagServerConfig config = {});

  /// Attaches the Resource Supervision Unit over this node's kernel and
  /// signal bus. Call before start(), then register resources on the
  /// returned unit; its cycle runs every watchdog check period and is
  /// suspended during reboot blackouts exactly like the environment loop.
  wdg::ResourceSupervisionUnit& attach_resource_supervision();

  /// Attaches the Environment Supervision Unit with the node's default
  /// wiring: one thermal channel over the junction-temperature model and —
  /// when NVM fault memory is enabled — one filesystem channel over the
  /// NvmStore. The graceful-derating ladder actuates through the node:
  /// derate parks the QM applications and stretches the HBM hypotheses;
  /// shutdown funnels into the FMF's persistent safe state with a
  /// ResetSource::kThermalShutdown cause. Call before start(); its cycle
  /// runs every watchdog check period like the RSU's.
  wdg::EnvironmentSupervisionUnit& attach_environment_supervision();

  /// Attaches the supervised-process client API. Register sections on the
  /// returned unit (before attach_diag() so the per-section transgression
  /// identifiers are served); records persist through the FMF's fault
  /// memory and survive ECU software resets.
  wdg::ProcessSupervisionUnit& attach_process_supervision();

  /// Attaches the Check Supervision Unit and registers every `check` rule
  /// of the attached policy as a supervised virtual runnable (implies
  /// attach_process_supervision() — a hung check evaluation transgresses
  /// its deadline window). Returns null when no policy is attached or the
  /// policy defines no checks. Call before start(); evaluation cycles run
  /// every watchdog check period like the ESU/PSU.
  policy::CheckSupervisionUnit* attach_check_supervision();

  // --- accessors --------------------------------------------------------------
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] rte::Ecu& ecu() { return ecu_; }
  [[nodiscard]] os::Kernel& kernel() { return ecu_.kernel(); }
  [[nodiscard]] rte::Rte& rte() { return ecu_.rte(); }
  [[nodiscard]] rte::SignalBus& signals() { return ecu_.signals(); }
  [[nodiscard]] wdg::SoftwareWatchdog& watchdog() { return watchdog_; }
  [[nodiscard]] wdg::WatchdogService& watchdog_service() { return *service_; }
  [[nodiscard]] fmf::FaultManagementFramework* fault_management() {
    return fmf_ ? fmf_.get() : nullptr;
  }
  /// Non-null when the FMF is enabled.
  [[nodiscard]] fmf::DtcStore* dtc_store() { return dtc_.get(); }
  /// Non-null when NVM-backed fault memory is enabled.
  [[nodiscard]] fmf::NvmStore* nvm() { return nvm_; }
  /// Non-null when self-supervision is enabled.
  [[nodiscard]] wdg::WatchdogSelfSupervision* self_supervision() {
    return self_supervision_.get();
  }
  /// Non-null after attach_diag().
  [[nodiscard]] diag::DiagServer* diag_server() { return diag_.get(); }
  /// Non-null after attach_resource_supervision().
  [[nodiscard]] wdg::ResourceSupervisionUnit* resource_supervision() {
    return rsu_.get();
  }
  /// Non-null after attach_environment_supervision().
  [[nodiscard]] wdg::EnvironmentSupervisionUnit* environment_supervision() {
    return esu_.get();
  }
  /// Non-null after attach_process_supervision().
  [[nodiscard]] wdg::ProcessSupervisionUnit* process_supervision() {
    return psu_.get();
  }
  /// Non-null after attach_check_supervision() with a check-bearing policy.
  [[nodiscard]] policy::CheckSupervisionUnit* check_supervision() {
    return csu_.get();
  }
  /// The attached dependability policy (null when none).
  [[nodiscard]] const policy::PolicySet* active_policy() const {
    return config_.policy.get();
  }
  [[nodiscard]] sim::ThermalModel& thermal_model() { return thermal_model_; }
  [[nodiscard]] apps::SafeSpeed& safespeed() { return *safespeed_; }
  [[nodiscard]] apps::SafeLane* safelane() { return safelane_.get(); }
  [[nodiscard]] apps::LightControl* light_control() { return light_.get(); }
  [[nodiscard]] apps::CrashDetection* crash_detection() {
    return crash_.get();
  }
  [[nodiscard]] sim::VehicleModel& vehicle() { return vehicle_; }
  [[nodiscard]] sim::LaneModel& lane() { return lane_; }

  [[nodiscard]] TaskId safespeed_task() const { return safespeed_task_; }
  [[nodiscard]] AlarmId safespeed_alarm() const { return safespeed_alarm_; }
  [[nodiscard]] std::uint64_t safespeed_period_ticks() const {
    return safespeed_ticks_;
  }
  [[nodiscard]] TaskId safelane_task() const { return safelane_task_; }
  [[nodiscard]] TaskId light_task() const { return light_task_; }
  [[nodiscard]] AlarmId safelane_alarm() const { return safelane_alarm_; }
  [[nodiscard]] std::uint64_t safelane_period_ticks() const {
    return safelane_ticks_;
  }
  [[nodiscard]] CounterId system_counter() const { return counter_; }
  [[nodiscard]] const CentralNodeConfig& config() const { return config_; }
  /// Non-null only in time-triggered mode.
  [[nodiscard]] os::ScheduleTable* schedule_table() {
    return schedule_table_.get();
  }

 private:
  sim::Engine& engine_;
  CentralNodeConfig config_;
  rte::Ecu ecu_;
  wdg::SoftwareWatchdog watchdog_;
  sim::VehicleModel vehicle_;
  sim::LaneModel lane_;

  CounterId counter_;
  TaskId safespeed_task_;
  AlarmId safespeed_alarm_;
  std::uint64_t safespeed_ticks_ = 0;
  TaskId safelane_task_;
  AlarmId safelane_alarm_;
  std::uint64_t safelane_ticks_ = 0;
  TaskId light_task_;
  AlarmId light_alarm_;
  std::uint64_t light_ticks_ = 0;

  std::unique_ptr<apps::SafeSpeed> safespeed_;
  std::unique_ptr<apps::SafeLane> safelane_;
  std::unique_ptr<apps::LightControl> light_;
  std::unique_ptr<apps::CrashDetection> crash_;
  std::unique_ptr<wdg::WatchdogService> service_;
  std::unique_ptr<fmf::FaultManagementFramework> fmf_;
  std::unique_ptr<fmf::DtcStore> dtc_;
  std::unique_ptr<fmf::NvmStore> owned_nvm_;
  fmf::NvmStore* nvm_ = nullptr;
  std::unique_ptr<wdg::WatchdogSelfSupervision> self_supervision_;
  std::unique_ptr<os::ScheduleTable> schedule_table_;
  std::unique_ptr<diag::DiagServer> diag_;
  std::unique_ptr<wdg::ResourceSupervisionUnit> rsu_;
  std::unique_ptr<wdg::EnvironmentSupervisionUnit> esu_;
  std::unique_ptr<wdg::ProcessSupervisionUnit> psu_;
  std::unique_ptr<policy::CheckSupervisionUnit> csu_;
  sim::ThermalModel thermal_model_;
  /// Pre-derate HBM hypotheses, restored when the ladder steps back down.
  std::vector<std::pair<RunnableId, wdg::RunnableMonitor>> stretched_;
  bool derated_ = false;

  bool started_once_ = false;
  std::uint32_t resets_ = 0;
  std::uint32_t hw_resets_ = 0;
  bool safe_state_ = false;
  bool rebooting_ = false;
  std::uint64_t env_generation_ = 0;
  std::uint64_t boot_generation_ = 0;
  // Environment-step signals (bound once; the step runs every few ms).
  rte::SignalHandle drive_cmd_signal_;
  rte::SignalHandle speed_signal_;
  rte::SignalHandle lane_offset_signal_;

  void arm_alarms();
  void apply_policy_bindings();
  [[nodiscard]] sim::Duration nominal_period_of(RunnableId id);
  void boot_after_reset();
  void on_hw_watchdog_expired(sim::SimTime now);
  void schedule_environment(std::uint64_t generation);
  void schedule_resource_cycles(std::uint64_t generation);
  void schedule_environment_cycles(std::uint64_t generation);
  void enter_thermal_derate(sim::SimTime now);
  void exit_thermal_derate(sim::SimTime now);
};

}  // namespace easis::validator
