// Fault Management Framework (paper §3.2, §4.4; EASIS deliverable D1.2-8).
//
// The general fault-treatment service of the EASIS platform: gathers fault
// notifications from dependability services (here: the Software Watchdog),
// records them, informs the applications, and carries out coordinated fault
// treatment with a global view of the ECU:
//   - global ECU state faulty  -> ECU software reset
//   - ECU ok, application faulty -> restart or terminate the application
//     (escalating to termination after too many restarts)
//
// Robustness extensions beyond the paper:
//   - fault memory persisted to (simulated) NVM: DTCs, reset counters and
//     the reset-cause record survive an ECU software reset
//   - reboot-storm detection: too many resets inside a time window latch a
//     persistent limp-home/safe state instead of resetting forever
//   - post-reset recovery validation: treatments open a supervised warm-up
//     window; a dirty window escalates immediately
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "fmf/dtc.hpp"
#include "fmf/nvm.hpp"
#include "rte/rte.hpp"
#include "util/ring_buffer.hpp"
#include "wdg/watchdog.hpp"

namespace easis::fmf {

/// One entry of the fault log.
struct FaultRecord {
  std::string source;  // reporting service, e.g. "swd"
  wdg::ErrorReport report;
  wdg::Severity severity = wdg::Severity::kInfo;
};

/// Treatment configured per application.
enum class TreatmentAction : std::uint8_t {
  kNone,
  kRestart,
  kTerminate,
  /// Dynamic reconfiguration (paper outlook): switch the application into
  /// a registered degraded mode instead of restarting; a fault while
  /// already degraded escalates to termination.
  kDegrade,
  /// Policy-selected controlled shutdown: a fault in this application
  /// drives the whole ECU into the persistent limp-home safe state
  /// (request_safe_state with a kPolicySafeState cause).
  kSafeState,
};

struct ApplicationPolicy {
  TreatmentAction on_faulty = TreatmentAction::kRestart;
  /// Restarts allowed before escalating to termination.
  std::uint32_t max_restarts = 3;
};

struct FmfConfig {
  std::size_t fault_log_capacity = 256;
  /// Software resets allowed before the FMF gives up (stays faulty).
  std::uint32_t max_ecu_resets = 2;
  /// Reboot-storm detection: this many performed resets inside
  /// `storm_window` latch the storm state — further resets are refused and
  /// the ECU is driven into a persistent limp-home/safe state instead.
  std::uint32_t storm_reset_limit = 3;
  sim::Duration storm_window = sim::Duration::seconds(10);
  /// Restart-counter aging (mirrors automotive DTC aging): a restart older
  /// than this no longer counts against the escalation-to-termination
  /// budget. Zero disables aging (counters are for-life, the paper's
  /// behaviour). restarts_performed() stays monotonic either way.
  sim::Duration restart_aging = sim::Duration::zero();
  /// Post-reset recovery validation: warm-up window length in watchdog
  /// main-function cycles opened after each application restart (and by
  /// begin_ecu_recovery_window() after an ECU reset). Zero disables it.
  std::uint32_t recovery_warmup_cycles = 0;
};

class FaultManagementFramework {
 public:
  /// `ecu_reset` performs the platform's software reset (kernel reboot +
  /// service re-arm); supplied by the node assembly.
  FaultManagementFramework(rte::Rte& rte, wdg::SoftwareWatchdog& watchdog,
                           std::function<void()> ecu_reset,
                           FmfConfig config = {});

  /// Subscribes to the watchdog's error and state interfaces. Call once.
  void attach();

  void set_application_policy(ApplicationId app, ApplicationPolicy policy);

  /// Registers the application's degraded-mode reconfiguration: `enter`
  /// switches to the reduced/limp-home configuration (required for
  /// TreatmentAction::kDegrade), `exit` restores normal operation (used by
  /// recover_application()).
  void set_degraded_mode(ApplicationId app, std::function<void()> enter,
                         std::function<void()> exit = nullptr);
  [[nodiscard]] bool is_degraded(ApplicationId app) const;
  /// Operator/diagnostic path: leaves degraded mode and clears the
  /// monitoring state of the application's tasks.
  void recover_application(ApplicationId app, sim::SimTime now);
  /// Applies the application's registered degraded mode (restart fallback
  /// when none is registered; termination when already degraded). Public
  /// for coordinated environmental treatment: the thermal-derating ladder
  /// parks QM applications through the same path a faulty state would.
  void degrade_application(ApplicationId app, sim::SimTime now);

  /// Applications register to be informed about detected faults.
  using FaultListener = std::function<void(const FaultRecord&)>;
  void add_fault_listener(FaultListener listener);

  /// Attaches a diagnostic trouble-code store: every fault is recorded as
  /// a DTC; an application returning to healthy marks its DTCs passive.
  /// Not owned; must outlive the framework.
  void attach_dtc_store(DtcStore* store) { dtc_store_ = store; }
  [[nodiscard]] DtcStore* dtc_store() { return dtc_store_; }

  // --- reset-safe fault memory (NVM) -------------------------------------------
  /// Attaches the non-volatile fault memory. Reset counters, the reset
  /// history (including the reset-cause record) and the DTC store are
  /// committed before every performed reset and re-seeded at boot. Not
  /// owned; must outlive the framework.
  void attach_nvm(NvmStore* store) { nvm_ = store; }
  [[nodiscard]] NvmStore* nvm() { return nvm_; }

  /// Re-seeds fault memory from NVM (call at every boot, before the kernel
  /// starts dispatching). A CRC/format failure is reported through the
  /// watchdog error path as an ErrorType::kNvmCorruption fault — corrupted
  /// fault memory is never silently consumed. Restoring a latched storm
  /// state re-enters the safe state via the safe-state hook.
  void boot_from_nvm(sim::SimTime now);

  /// Commits the current fault memory to NVM (also called internally
  /// before every performed reset). When the image no longer fits the
  /// bank (flash full), fault memory degrades gracefully: entries are
  /// evicted lowest-priority-first (oldest passive DTC freeze frames,
  /// then oldest passive DTCs, then active ones) until the commit fits —
  /// the reset-cause chain and transgression records are never dropped.
  void persist();

  /// Connects the supervised-process transgression records to fault
  /// memory: `snapshot` feeds persist(), `restore` is replayed by
  /// boot_from_nvm(). std::function keeps the FMF decoupled from the
  /// process-supervision unit.
  void attach_transgression_store(
      std::function<std::vector<wdg::TransgressionRecord>()> snapshot,
      std::function<void(const std::vector<wdg::TransgressionRecord>&)>
          restore) {
    transgression_snapshot_ = std::move(snapshot);
    transgression_restore_ = std::move(restore);
  }

  /// Connects a duty-cycled node's power-mode machine: `snapshot` is
  /// written into every NVM commit, `restore` re-seeds the machine from
  /// the persisted mode at boot (empty = no persisted mode). Keeps the
  /// FMF decoupled from the mode subsystem like the transgression store.
  void attach_power_mode_store(
      std::function<std::string()> snapshot,
      std::function<void(const std::string&)> restore) {
    power_mode_snapshot_ = std::move(snapshot);
    power_mode_restore_ = std::move(restore);
  }

  /// Central ECU reset path: every reset request — ECU-faulty escalation,
  /// HW-watchdog expiry, failed recovery validation — funnels through here
  /// so the reset-cause record, the storm bookkeeping and the NVM commit
  /// are uniform. Refuses the reset when the budget is exhausted or a
  /// reboot storm is detected/latched.
  void request_reset(ResetCause cause, sim::SimTime now);

  /// Hook invoked when a reboot storm latches: the node assembly drives
  /// the ECU into its limp-home/safe state here.
  void set_safe_state_hook(std::function<void(const ResetCause&)> hook) {
    safe_state_hook_ = std::move(hook);
  }

  /// Controlled shutdown into the persistent safe state without a reset:
  /// used by the thermal-derating ladder's final stage. Shares the storm
  /// latch (the decision survives power cycles and further resets are
  /// refused) and invokes the safe-state hook. Idempotent once latched.
  void request_safe_state(ResetCause cause, sim::SimTime now);

  /// Opens an ECU-wide post-reset recovery window over all actively
  /// monitored runnables (no-op when recovery_warmup_cycles is zero).
  void begin_ecu_recovery_window(sim::SimTime now);

  // --- introspection -----------------------------------------------------------
  [[nodiscard]] const util::RingBuffer<FaultRecord>& fault_log() const {
    return log_;
  }
  [[nodiscard]] std::uint32_t restarts_performed(ApplicationId app) const;
  /// Restarts currently counting against the escalation budget; equals
  /// restarts_performed() when aging is disabled.
  [[nodiscard]] std::uint32_t restart_pressure(ApplicationId app,
                                               sim::SimTime now) const;
  [[nodiscard]] std::uint32_t terminations_performed(ApplicationId app) const;
  [[nodiscard]] std::uint32_t degradations_performed(ApplicationId app) const;
  [[nodiscard]] std::uint32_t ecu_resets_performed() const {
    return ecu_resets_;
  }
  [[nodiscard]] std::uint64_t faults_recorded() const { return faults_; }
  /// Fault-memory entries evicted by graceful degradation on flash-full.
  [[nodiscard]] std::uint32_t nvm_evictions() const { return nvm_evictions_; }
  /// Commits lost to NVM write errors (wear-out or transient faults).
  [[nodiscard]] std::uint32_t nvm_write_failures() const {
    return nvm_write_failures_;
  }
  [[nodiscard]] bool storm_latched() const { return storm_latched_; }
  [[nodiscard]] const std::optional<ResetCause>& last_reset_cause() const {
    return last_reset_cause_;
  }
  [[nodiscard]] const std::vector<ResetCause>& reset_history() const {
    return reset_history_;
  }
  [[nodiscard]] const FmfConfig& config() const { return config_; }
  /// Post-boot diagnostic read-out: reset history, storm state and the
  /// attached DTC store.
  void write_diagnostics(std::ostream& out) const;

 private:
  rte::Rte& rte_;
  wdg::SoftwareWatchdog& watchdog_;
  std::function<void()> ecu_reset_;
  FmfConfig config_;
  util::RingBuffer<FaultRecord> log_;
  struct DegradedMode {
    std::function<void()> enter;
    std::function<void()> exit;
    bool active = false;
    std::uint32_t entries = 0;
  };

  std::unordered_map<ApplicationId, ApplicationPolicy> policies_;
  std::unordered_map<ApplicationId, std::uint32_t> restarts_;
  std::unordered_map<ApplicationId, std::vector<sim::SimTime>> restart_times_;
  std::unordered_map<ApplicationId, std::uint32_t> terminations_;
  std::unordered_map<ApplicationId, DegradedMode> degraded_;
  std::uint32_t ecu_resets_ = 0;
  std::uint64_t faults_ = 0;
  std::vector<FaultListener> listeners_;
  DtcStore* dtc_store_ = nullptr;
  NvmStore* nvm_ = nullptr;
  std::uint32_t nvm_evictions_ = 0;
  std::uint32_t nvm_write_failures_ = 0;
  /// The last persist() hit a write error: logs only the transitions.
  bool nvm_write_failing_ = false;
  std::function<std::vector<wdg::TransgressionRecord>()>
      transgression_snapshot_;
  std::function<void(const std::vector<wdg::TransgressionRecord>&)>
      transgression_restore_;
  std::function<std::string()> power_mode_snapshot_;
  std::function<void(const std::string&)> power_mode_restore_;
  std::function<void(const ResetCause&)> safe_state_hook_;
  std::vector<ResetCause> reset_history_;
  std::optional<ResetCause> last_reset_cause_;
  std::optional<FaultRecord> last_fault_;
  bool storm_latched_ = false;
  bool attached_ = false;

  void on_error(const wdg::ErrorReport& report);
  void on_application_state(ApplicationId app, wdg::Health health,
                            sim::SimTime now);
  void on_ecu_state(wdg::Health health, sim::SimTime now);
  void on_recovery_result(bool ok, ApplicationId app,
                          const wdg::ErrorReport& cause, sim::SimTime now);
  void restart_application(ApplicationId app, sim::SimTime now);
  void terminate_application(ApplicationId app, sim::SimTime now);
  void clear_monitoring_state(ApplicationId app, sim::SimTime now);
  void latch_storm(const ResetCause& cause, sim::SimTime now);
  void record_reset_cause(ResetCause cause);
  [[nodiscard]] std::uint32_t recent_resets(sim::SimTime now) const;
  [[nodiscard]] ApplicationPolicy policy_of(ApplicationId app) const;
};

}  // namespace easis::fmf
