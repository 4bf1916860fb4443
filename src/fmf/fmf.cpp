#include "fmf/fmf.hpp"

#include <stdexcept>

#include "profile/profiler.hpp"
#include "telemetry/event_bus.hpp"
#include "util/logging.hpp"

namespace easis::fmf {

namespace {

constexpr std::string_view kLog = "fmf";

void emit_fmf_event(telemetry::EventKind kind, sim::SimTime now,
                    std::string detail,
                    ApplicationId app = ApplicationId{},
                    TaskId task = TaskId{}) {
  if (!telemetry::enabled()) return;
  telemetry::Event event;
  event.time = now;
  event.component = telemetry::Component::kFmf;
  event.kind = kind;
  event.task = task;
  event.application = app;
  event.detail = std::move(detail);
  telemetry::emit(std::move(event));
}

}  // namespace

FaultManagementFramework::FaultManagementFramework(
    rte::Rte& rte, wdg::SoftwareWatchdog& watchdog,
    std::function<void()> ecu_reset, FmfConfig config)
    : rte_(rte),
      watchdog_(watchdog),
      ecu_reset_(std::move(ecu_reset)),
      config_(config),
      log_(config.fault_log_capacity) {}

void FaultManagementFramework::attach() {
  if (attached_) throw std::logic_error("FMF: already attached");
  attached_ = true;
  watchdog_.add_error_listener(
      [this](const wdg::ErrorReport& report) { on_error(report); });
  watchdog_.add_application_state_listener(
      [this](ApplicationId app, wdg::Health health, sim::SimTime now) {
        on_application_state(app, health, now);
      });
  watchdog_.add_ecu_state_listener(
      [this](wdg::Health health, sim::SimTime now) {
        on_ecu_state(health, now);
      });
  watchdog_.recovery_unit().set_result_callback(
      [this](bool ok, ApplicationId app, const wdg::ErrorReport& cause,
             sim::SimTime now) { on_recovery_result(ok, app, cause, now); });
}

void FaultManagementFramework::set_application_policy(
    ApplicationId app, ApplicationPolicy policy) {
  policies_[app] = policy;
}

void FaultManagementFramework::add_fault_listener(FaultListener listener) {
  listeners_.push_back(std::move(listener));
}

ApplicationPolicy FaultManagementFramework::policy_of(
    ApplicationId app) const {
  auto it = policies_.find(app);
  return it == policies_.end() ? ApplicationPolicy{} : it->second;
}

void FaultManagementFramework::on_error(const wdg::ErrorReport& report) {
  EASIS_PROFILE_SPAN("fmf.react");
  ++faults_;
  FaultRecord record{"swd", report, watchdog_.severity(report.type)};
  log_.push(record);
  last_fault_ = record;  // candidate reset-cause evidence
  if (dtc_store_ != nullptr) dtc_store_->record(report);
  // Inform the applications about the detected fault.
  for (const auto& listener : listeners_) listener(record);
}

void FaultManagementFramework::on_application_state(ApplicationId app,
                                                    wdg::Health health,
                                                    sim::SimTime now) {
  if (health != wdg::Health::kFaulty) {
    // Application healed: its DTCs become passive (history retained).
    if (dtc_store_ != nullptr) {
      for (std::size_t t = 0; t < wdg::kErrorTypeCount; ++t) {
        dtc_store_->set_passive(
            DtcKey{app, static_cast<wdg::ErrorType>(t)});
      }
    }
    return;
  }
  // If the global ECU state is faulty the ECU-level treatment takes over
  // (the ECU-state callback fires after task/application callbacks).
  if (watchdog_.ecu_health() == wdg::Health::kFaulty) return;
  // In the latched storm state the node is parked in limp-home; per-app
  // treatments would fight the safe-state configuration.
  if (storm_latched_) return;

  const ApplicationPolicy policy = policy_of(app);
  switch (policy.on_faulty) {
    case TreatmentAction::kNone:
      break;
    case TreatmentAction::kRestart:
      if (restart_pressure(app, now) < policy.max_restarts) {
        restart_application(app, now);
      } else {
        terminate_application(app, now);
      }
      break;
    case TreatmentAction::kTerminate:
      terminate_application(app, now);
      break;
    case TreatmentAction::kDegrade:
      degrade_application(app, now);
      break;
    case TreatmentAction::kSafeState: {
      ResetCause cause;
      cause.source = ResetSource::kPolicySafeState;
      cause.application = app;
      cause.time = now;
      if (last_fault_) {
        cause.task = last_fault_->report.task;
        cause.error = last_fault_->report.type;
      }
      cause.detail = "policy treatment: safe state for application " +
                     rte_.application_name(app);
      request_safe_state(std::move(cause), now);
      break;
    }
  }
}

void FaultManagementFramework::on_ecu_state(wdg::Health health,
                                            sim::SimTime now) {
  if (health != wdg::Health::kFaulty) return;
  ResetCause cause;
  cause.source = ResetSource::kEcuFaulty;
  cause.time = now;
  if (last_fault_) {
    cause.task = last_fault_->report.task;
    cause.application = last_fault_->report.application;
    cause.error = last_fault_->report.type;
    cause.detail = last_fault_->report.detail;
  }
  if (cause.detail.empty()) {
    cause.detail = std::string("global ECU state faulty (") +
                   std::string(wdg::to_string(cause.error)) + ")";
  }
  request_reset(std::move(cause), now);
}

void FaultManagementFramework::request_reset(ResetCause cause,
                                             sim::SimTime now) {
  emit_fmf_event(telemetry::EventKind::kResetRequested, now,
                 std::string(to_string(cause.source)) +
                     (cause.detail.empty() ? "" : ": " + cause.detail),
                 cause.application, cause.task);
  if (storm_latched_) {
    EASIS_LOG(util::LogLevel::kError, kLog)
        << "reset requested (" << to_string(cause.source)
        << ") but reboot storm is latched; staying in safe state";
    emit_fmf_event(telemetry::EventKind::kResetRefused, now,
                   "reboot storm latched; staying in safe state",
                   cause.application, cause.task);
    return;
  }
  if (recent_resets(now) >= config_.storm_reset_limit) {
    latch_storm(cause, now);
    return;
  }
  if (ecu_resets_ >= config_.max_ecu_resets) {
    EASIS_LOG(util::LogLevel::kError, kLog)
        << "ECU faulty but reset budget exhausted; staying faulty";
    emit_fmf_event(telemetry::EventKind::kResetRefused, now,
                   "reset budget exhausted", cause.application, cause.task);
    return;
  }
  ++ecu_resets_;
  EASIS_LOG(util::LogLevel::kWarn, kLog)
      << "ECU software reset #" << ecu_resets_ << " ("
      << to_string(cause.source) << "): " << cause.detail;
  emit_fmf_event(telemetry::EventKind::kResetPerformed, now,
                 "reset #" + std::to_string(ecu_resets_) + " (" +
                     std::string(to_string(cause.source)) + ")",
                 cause.application, cause.task);
  record_reset_cause(std::move(cause));
  persist();  // the reset-cause record must survive the reset it explains
  if (nvm_ != nullptr) {
    emit_fmf_event(telemetry::EventKind::kNvmCommit, now,
                   "reset-cause record persisted");
  }
  if (ecu_reset_) ecu_reset_();
}

void FaultManagementFramework::latch_storm(const ResetCause& cause,
                                           sim::SimTime now) {
  storm_latched_ = true;
  EASIS_LOG(util::LogLevel::kError, kLog)
      << "reboot storm: " << config_.storm_reset_limit << " resets within "
      << config_.storm_window << "; refusing further resets, entering "
      << "limp-home safe state";
  // Document the decision: a reset-cause record (not a performed reset)
  // and a fault-log entry / DTC explaining why the ECU is parked.
  ResetCause decision = cause;
  decision.time = now;
  decision.detail = "reboot storm latched after " +
                    std::to_string(config_.storm_reset_limit) +
                    " resets; limp-home (" + decision.detail + ")";
  record_reset_cause(decision);

  wdg::ErrorReport storm_report;
  storm_report.task = cause.task;
  storm_report.application = cause.application;
  storm_report.type = cause.error;
  storm_report.time = now;
  storm_report.detail = decision.detail;
  FaultRecord record{"fmf.storm", storm_report, wdg::Severity::kCritical};
  log_.push(record);
  if (dtc_store_ != nullptr) dtc_store_->record(storm_report);
  for (const auto& listener : listeners_) listener(record);

  emit_fmf_event(telemetry::EventKind::kStormLatched, now, decision.detail,
                 cause.application, cause.task);
  persist();  // the latch itself must survive power cycles
  if (nvm_ != nullptr) {
    emit_fmf_event(telemetry::EventKind::kNvmCommit, now,
                   "storm latch persisted");
  }
  if (safe_state_hook_) safe_state_hook_(decision);
}

void FaultManagementFramework::request_safe_state(ResetCause cause,
                                                  sim::SimTime now) {
  if (storm_latched_) return;  // already parked; the latch is terminal
  storm_latched_ = true;
  EASIS_LOG(util::LogLevel::kError, kLog)
      << "controlled shutdown into safe state ("
      << to_string(cause.source) << "): " << cause.detail;
  ResetCause decision = std::move(cause);
  decision.time = now;
  record_reset_cause(decision);

  wdg::ErrorReport report;
  report.task = decision.task;
  report.application = decision.application;
  report.type = decision.error;
  report.time = now;
  report.detail = decision.detail;
  FaultRecord record{"fmf.shutdown", report, wdg::Severity::kCritical};
  log_.push(record);
  if (dtc_store_ != nullptr) dtc_store_->record(report);
  for (const auto& listener : listeners_) listener(record);

  emit_fmf_event(telemetry::EventKind::kStormLatched, now, decision.detail,
                 decision.application, decision.task);
  persist();  // the shutdown decision must survive the power cycle
  if (nvm_ != nullptr) {
    emit_fmf_event(telemetry::EventKind::kNvmCommit, now,
                   "safe-state decision persisted");
  }
  if (safe_state_hook_) safe_state_hook_(decision);
}

void FaultManagementFramework::record_reset_cause(ResetCause cause) {
  reset_history_.push_back(cause);
  if (reset_history_.size() > kResetHistoryDepth) {
    reset_history_.erase(reset_history_.begin());
  }
  last_reset_cause_ = std::move(cause);
}

std::uint32_t FaultManagementFramework::recent_resets(sim::SimTime now) const {
  std::uint32_t count = 0;
  for (const ResetCause& cause : reset_history_) {
    if (now - cause.time < config_.storm_window) ++count;
  }
  return count;
}

void FaultManagementFramework::clear_monitoring_state(ApplicationId app,
                                                      sim::SimTime now) {
  for (TaskId task : rte_.tasks_of_application(app)) {
    watchdog_.clear_task_state(task, now);
  }
  for (RunnableId runnable : rte_.runnables_of_application(app)) {
    if (watchdog_.heartbeat_unit().monitors(runnable)) {
      watchdog_.reset_runnable(runnable);
    }
  }
}

void FaultManagementFramework::restart_application(ApplicationId app,
                                                   sim::SimTime now) {
  ++restarts_[app];
  restart_times_[app].push_back(now);
  EASIS_LOG(util::LogLevel::kWarn, kLog)
      << "restarting application " << rte_.application_name(app)
      << " (restart #" << restarts_[app] << ")";
  emit_fmf_event(telemetry::EventKind::kTreatmentAction, now,
                 "restart " + rte_.application_name(app) + " (#" +
                     std::to_string(restarts_[app]) + ")",
                 app);
  rte_.restart_application(app);
  // Clear monitoring state so the restarted application starts clean.
  clear_monitoring_state(app, now);
  // Validate the treatment: the restarted runnables must re-announce inside
  // the warm-up window or the FMF escalates immediately.
  if (config_.recovery_warmup_cycles > 0) {
    std::vector<RunnableId> required;
    for (RunnableId runnable : rte_.runnables_of_application(app)) {
      if (watchdog_.heartbeat_unit().monitors(runnable) &&
          watchdog_.activation_status(runnable) &&
          watchdog_.heartbeat_unit().config(runnable).monitor_aliveness) {
        required.push_back(runnable);
      }
    }
    watchdog_.recovery_unit().begin(std::move(required), app,
                                    config_.recovery_warmup_cycles, now);
  }
}

void FaultManagementFramework::begin_ecu_recovery_window(sim::SimTime now) {
  if (config_.recovery_warmup_cycles == 0) return;
  std::vector<RunnableId> required;
  for (RunnableId runnable :
       watchdog_.heartbeat_unit().monitored_runnables()) {
    // Sporadic runnables (arrival-rate-only hypotheses) cannot be required
    // to re-announce within a fixed warm-up window.
    if (watchdog_.activation_status(runnable) &&
        watchdog_.heartbeat_unit().config(runnable).monitor_aliveness) {
      required.push_back(runnable);
    }
  }
  watchdog_.recovery_unit().begin(std::move(required), ApplicationId{},
                                  config_.recovery_warmup_cycles, now);
}

void FaultManagementFramework::on_recovery_result(
    bool ok, ApplicationId app, const wdg::ErrorReport& cause,
    sim::SimTime now) {
  if (ok) {
    EASIS_LOG(util::LogLevel::kInfo, kLog)
        << "post-reset recovery validated clean"
        << (app.valid() ? " (application scope)" : " (ECU scope)");
    return;
  }
  FaultRecord record{"fmf.recovery", cause, wdg::Severity::kCritical};
  log_.push(record);
  if (dtc_store_ != nullptr) dtc_store_->record(cause);
  for (const auto& listener : listeners_) listener(record);
  if (app.valid()) {
    // The restart demonstrably did not fix it; skip the remaining restart
    // budget and terminate right away.
    EASIS_LOG(util::LogLevel::kWarn, kLog)
        << "recovery validation failed for application "
        << rte_.application_name(app) << "; escalating to termination";
    terminate_application(app, now);
    return;
  }
  ResetCause reset_cause;
  reset_cause.source = ResetSource::kRecoveryFailure;
  reset_cause.task = cause.task;
  reset_cause.application = cause.application;
  reset_cause.error = cause.type;
  reset_cause.time = now;
  reset_cause.detail = cause.detail.empty()
                           ? "post-reset recovery validation failed"
                           : "recovery validation: " + cause.detail;
  request_reset(std::move(reset_cause), now);
}

void FaultManagementFramework::set_degraded_mode(ApplicationId app,
                                                 std::function<void()> enter,
                                                 std::function<void()> exit) {
  DegradedMode mode;
  mode.enter = std::move(enter);
  mode.exit = std::move(exit);
  degraded_[app] = std::move(mode);
}

bool FaultManagementFramework::is_degraded(ApplicationId app) const {
  auto it = degraded_.find(app);
  return it != degraded_.end() && it->second.active;
}

void FaultManagementFramework::degrade_application(ApplicationId app,
                                                   sim::SimTime now) {
  auto it = degraded_.find(app);
  if (it == degraded_.end() || !it->second.enter) {
    // No degraded mode registered: fall back to restart semantics.
    restart_application(app, now);
    return;
  }
  DegradedMode& mode = it->second;
  if (mode.active) {
    // Fault while already degraded: the reconfiguration did not help.
    terminate_application(app, now);
    return;
  }
  mode.active = true;
  ++mode.entries;
  EASIS_LOG(util::LogLevel::kWarn, kLog)
      << "reconfiguring application " << rte_.application_name(app)
      << " into degraded mode";
  emit_fmf_event(telemetry::EventKind::kTreatmentAction, now,
                 "degrade " + rte_.application_name(app), app);
  mode.enter();
  clear_monitoring_state(app, now);
}

void FaultManagementFramework::recover_application(ApplicationId app,
                                                   sim::SimTime now) {
  auto it = degraded_.find(app);
  if (it == degraded_.end() || !it->second.active) return;
  it->second.active = false;
  EASIS_LOG(util::LogLevel::kInfo, kLog)
      << "recovering application " << rte_.application_name(app)
      << " from degraded mode";
  emit_fmf_event(telemetry::EventKind::kTreatmentAction, now,
                 "recover " + rte_.application_name(app) +
                     " from degraded mode",
                 app);
  if (it->second.exit) it->second.exit();
  clear_monitoring_state(app, now);
}

void FaultManagementFramework::terminate_application(ApplicationId app,
                                                     sim::SimTime now) {
  ++terminations_[app];
  EASIS_LOG(util::LogLevel::kWarn, kLog)
      << "terminating application " << rte_.application_name(app);
  emit_fmf_event(telemetry::EventKind::kTreatmentAction, now,
                 "terminate " + rte_.application_name(app), app);
  // Deactivate monitoring first so the dead runnables do not keep
  // generating aliveness errors.
  for (RunnableId runnable : rte_.runnables_of_application(app)) {
    if (watchdog_.heartbeat_unit().monitors(runnable)) {
      watchdog_.set_activation_status(runnable, false);
    }
  }
  for (TaskId task : rte_.tasks_of_application(app)) {
    watchdog_.clear_task_state(task, now);
  }
  rte_.set_application_enabled(app, false);
}

void FaultManagementFramework::persist() {
  if (nvm_ == nullptr) return;
  NvmImage image;
  image.reset_count = ecu_resets_;
  image.storm_latched = storm_latched_;
  image.reset_history = reset_history_;
  if (dtc_store_ != nullptr) {
    image.dtcs.reserve(dtc_store_->count());
    for (const auto& [key, entry] : dtc_store_->by_key()) {
      image.dtcs.push_back(PersistedDtc{key, entry.occurrences,
                                        entry.first_seen, entry.last_seen,
                                        entry.active, entry.freeze_frame});
    }
  }
  if (transgression_snapshot_) {
    image.transgressions = transgression_snapshot_();
  }
  if (power_mode_snapshot_) image.power_mode = power_mode_snapshot_();
  // One size walk; every eviction lowers the running count by what it
  // freed, so each retry is a size check, not a walk over the image.
  std::size_t bytes = payload_bytes(image);
  std::uint32_t overflows_seen = nvm_->overflows();
  std::optional<EvictionLadder> ladder;  // ordered at the first overflow
  while (!nvm_->commit(image, bytes)) {
    const bool capacity = nvm_->overflows() > overflows_seen;
    overflows_seen = nvm_->overflows();
    if (!capacity) {
      // Wear-out or transient write fault: nothing to evict will help.
      // A worn bank fails every persist, so only the onset is logged.
      ++nvm_write_failures_;
      if (!nvm_write_failing_) {
        nvm_write_failing_ = true;
        EASIS_LOG(util::LogLevel::kError, kLog)
            << "NVM commits failing: write error (flash wear or fault)";
      }
      return;
    }
    // Flash full: degrade gracefully, lowest-priority entry first.
    if (!ladder) ladder.emplace(image);
    const std::size_t freed = ladder->evict_next(image);
    if (freed == 0) {
      EASIS_LOG(util::LogLevel::kError, kLog)
          << "NVM commit failed: image exceeds bank capacity even after "
          << "evicting all expendable fault-memory entries";
      return;
    }
    bytes -= freed;
    ++nvm_evictions_;
    // Dropped entries leave the image only once it fits: a commit that
    // overflows never reads the image, so the next one may write it.
    if (nvm_->fits(bytes)) {
      ladder->compact(image);
      ladder.reset();
    }
  }
  if (nvm_write_failing_) {
    nvm_write_failing_ = false;
    EASIS_LOG(util::LogLevel::kWarn, kLog)
        << "NVM commits recovered after " << nvm_write_failures_
        << " lost commit(s) in total";
  }
}

void FaultManagementFramework::boot_from_nvm(sim::SimTime now) {
  if (nvm_ == nullptr) return;
  const NvmStore::LoadResult result = nvm_->load();
  if (result.image) {
    const NvmImage& image = *result.image;
    if (image.reset_count > ecu_resets_) ecu_resets_ = image.reset_count;
    reset_history_ = image.reset_history;
    if (!reset_history_.empty()) last_reset_cause_ = reset_history_.back();
    if (dtc_store_ != nullptr) {
      std::vector<DtcEntry> entries;
      entries.reserve(image.dtcs.size());
      for (const PersistedDtc& dtc : image.dtcs) {
        entries.push_back(DtcEntry{dtc.key, dtc.occurrences, dtc.first_seen,
                                   dtc.last_seen, dtc.active,
                                   dtc.freeze_frame});
      }
      dtc_store_->restore(entries);
    }
    if (transgression_restore_ && !image.transgressions.empty()) {
      transgression_restore_(image.transgressions);
    }
    if (power_mode_restore_ && !image.power_mode.empty()) {
      power_mode_restore_(image.power_mode);
    }
    emit_fmf_event(telemetry::EventKind::kNvmRestore, now,
                   "restored " + std::to_string(image.reset_count) +
                       " reset(s), " + std::to_string(image.dtcs.size()) +
                       " DTC(s), " +
                       std::to_string(image.transgressions.size()) +
                       " transgression record(s), storm " +
                       (image.storm_latched ? "latched" : "clear"));
    if (image.storm_latched && !storm_latched_) {
      // The latch is persistent: a power cycle must not re-enter the
      // naive reset loop. Re-enter the safe state right at boot.
      storm_latched_ = true;
      EASIS_LOG(util::LogLevel::kError, kLog)
          << "NVM carries a latched reboot storm; re-entering safe state";
      if (safe_state_hook_) {
        safe_state_hook_(last_reset_cause_ ? *last_reset_cause_
                                           : ResetCause{});
      }
    }
  }
  if (result.corruption_detected) {
    // Report *after* the restore: the corruption DTC must not be wiped by
    // re-seeding the store from the surviving bank.
    wdg::ErrorReport report;
    report.type = wdg::ErrorType::kNvmCorruption;
    report.time = now;
    report.detail = result.detail;
    watchdog_.report_external_error(std::move(report));
  }
}

void FaultManagementFramework::write_diagnostics(std::ostream& out) const {
  out << "FMF fault memory: " << ecu_resets_ << " ECU resets, storm "
      << (storm_latched_ ? "LATCHED" : "clear") << '\n';
  if (last_reset_cause_ && last_reset_cause_->source != ResetSource::kNone) {
    const ResetCause& cause = *last_reset_cause_;
    out << "  last reset cause: " << to_string(cause.source) << " task "
        << cause.task << " app" << cause.application << ' '
        << wdg::to_string(cause.error) << " at " << cause.time.as_millis()
        << " ms: " << cause.detail << '\n';
  }
  for (const ResetCause& cause : reset_history_) {
    out << "  reset @" << cause.time.as_millis() << " ms  "
        << to_string(cause.source) << "  " << wdg::to_string(cause.error)
        << "  " << cause.detail << '\n';
  }
  if (dtc_store_ != nullptr) dtc_store_->write(out);
}

std::uint32_t FaultManagementFramework::restarts_performed(
    ApplicationId app) const {
  auto it = restarts_.find(app);
  return it == restarts_.end() ? 0 : it->second;
}

std::uint32_t FaultManagementFramework::restart_pressure(
    ApplicationId app, sim::SimTime now) const {
  if (config_.restart_aging.as_micros() <= 0) return restarts_performed(app);
  auto it = restart_times_.find(app);
  if (it == restart_times_.end()) return 0;
  std::uint32_t count = 0;
  for (sim::SimTime t : it->second) {
    if (now - t < config_.restart_aging) ++count;
  }
  return count;
}

std::uint32_t FaultManagementFramework::terminations_performed(
    ApplicationId app) const {
  auto it = terminations_.find(app);
  return it == terminations_.end() ? 0 : it->second;
}

std::uint32_t FaultManagementFramework::degradations_performed(
    ApplicationId app) const {
  auto it = degraded_.find(app);
  return it == degraded_.end() ? 0 : it->second.entries;
}

}  // namespace easis::fmf
