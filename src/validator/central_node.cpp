#include "validator/central_node.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/logging.hpp"
#include "wdg/config_check.hpp"

namespace easis::validator {

namespace {
std::int64_t lcm64(std::int64_t a, std::int64_t b) {
  std::int64_t x = a, y = b;
  while (y != 0) {
    const std::int64_t t = x % y;
    x = y;
    y = t;
  }
  return a / x * b;
}

std::uint64_t period_ticks(sim::Duration period) {
  constexpr std::int64_t kTickMicros = 1000;  // 1 ms system counter
  const std::int64_t p = period.as_micros();
  if (p <= 0 || p % kTickMicros != 0) {
    throw std::invalid_argument(
        "CentralNode: task periods must be positive multiples of 1ms");
  }
  return static_cast<std::uint64_t>(p / kTickMicros);
}
}  // namespace

CentralNode::CentralNode(sim::Engine& engine, CentralNodeConfig config)
    : engine_(engine),
      config_(config),
      ecu_(engine, "CentralNode"),
      watchdog_(config.watchdog),
      thermal_model_(config.thermal) {
  auto& kernel = ecu_.kernel();
  auto& rte = ecu_.rte();
  drive_cmd_signal_ = ecu_.signals().bind("actuator.drive_cmd");
  speed_signal_ = ecu_.signals().bind("vehicle.speed_kmh");
  lane_offset_signal_ = ecu_.signals().bind("lane.offset_m");

  // 1 ms system counter driving all periodic activations.
  os::CounterConfig counter_config;
  counter_config.name = "SystemTimer";
  counter_config.tick = sim::Duration::millis(1);
  counter_ = kernel.create_counter(counter_config);

  // --- application tasks -----------------------------------------------------
  os::TaskConfig ss_task;
  ss_task.name = "Task_SafeSpeed";
  ss_task.priority = config_.safespeed_priority;
  safespeed_task_ = kernel.create_task(ss_task);
  safespeed_alarm_ = kernel.create_alarm(
      counter_, os::AlarmActionActivateTask{safespeed_task_},
      "Alarm_SafeSpeed");
  safespeed_ticks_ = period_ticks(config_.safespeed.period);
  safespeed_ = std::make_unique<apps::SafeSpeed>(
      rte, ecu_.signals(), safespeed_task_, config_.safespeed);
  safespeed_->configure_watchdog(watchdog_);

  if (config_.with_safelane) {
    os::TaskConfig sl_task;
    sl_task.name = "Task_SafeLane";
    sl_task.priority = config_.safelane_priority;
    safelane_task_ = kernel.create_task(sl_task);
    safelane_alarm_ = kernel.create_alarm(
        counter_, os::AlarmActionActivateTask{safelane_task_},
        "Alarm_SafeLane");
    safelane_ticks_ = period_ticks(config_.safelane.period);
    safelane_ = std::make_unique<apps::SafeLane>(
        rte, ecu_.signals(), safelane_task_, config_.safelane);
    safelane_->configure_watchdog(watchdog_);
  }

  if (config_.with_light_control) {
    os::TaskConfig lc_task;
    lc_task.name = "Task_LightControl";
    lc_task.priority = config_.light_priority;
    light_task_ = kernel.create_task(lc_task);
    light_alarm_ = kernel.create_alarm(
        counter_, os::AlarmActionActivateTask{light_task_},
        "Alarm_LightControl");
    light_ticks_ = period_ticks(config_.light.period);
    light_ = std::make_unique<apps::LightControl>(
        rte, ecu_.signals(), light_task_, config_.light);
    light_->configure_watchdog(watchdog_);
  }

  if (config_.with_crash_detection) {
    config_.crash.arrival_cycles = 10;  // per the watchdog check period
    crash_ = std::make_unique<apps::CrashDetection>(
        rte, ecu_.signals(), config_.crash_priority, config_.crash);
    crash_->configure_watchdog(watchdog_);
  }

  // --- time-triggered dispatching (OSEKTime-style) -----------------------------
  if (config_.time_triggered) {
    std::int64_t round_us = config_.safespeed.period.as_micros();
    if (safelane_) round_us = lcm64(round_us, config_.safelane.period.as_micros());
    if (light_) round_us = lcm64(round_us, config_.light.period.as_micros());
    schedule_table_ = std::make_unique<os::ScheduleTable>(
        kernel, "TT_Dispatcher", sim::Duration::micros(round_us));
    auto add_points = [&](TaskId task, sim::Duration period) {
      for (std::int64_t offset = 0; offset < round_us;
           offset += period.as_micros()) {
        schedule_table_->add_expiry_point(
            {sim::Duration::micros(offset), task, period});
      }
    };
    add_points(safespeed_task_, config_.safespeed.period);
    if (safelane_) add_points(safelane_task_, config_.safelane.period);
    if (light_) add_points(light_task_, config_.light.period);
  }

  // --- dependability services ---------------------------------------------------
  service_ = std::make_unique<wdg::WatchdogService>(
      kernel, rte, watchdog_, counter_, config_.watchdog_service);

  if (config_.with_fmf) {
    fmf_ = std::make_unique<fmf::FaultManagementFramework>(
        rte, watchdog_, [this] { software_reset(); }, config_.fmf);
    std::vector<std::string> frame_signals{"vehicle.speed_kmh",
                                           "driver.demand",
                                           "safespeed.max_speed_kmh"};
    frame_signals.insert(frame_signals.end(),
                         config_.extra_frame_signals.begin(),
                         config_.extra_frame_signals.end());
    dtc_ = std::make_unique<fmf::DtcStore>(
        ecu_.signals(), std::move(frame_signals), config_.dtc_capacity);
    fmf_->attach_dtc_store(dtc_.get());
    if (config_.with_nvm) {
      if (config_.external_nvm != nullptr) {
        nvm_ = config_.external_nvm;
      } else {
        owned_nvm_ = std::make_unique<fmf::NvmStore>(config_.nvm_capacity);
        nvm_ = owned_nvm_.get();
      }
      fmf_->attach_nvm(nvm_);
    }
    fmf_->set_safe_state_hook(
        [this](const fmf::ResetCause& cause) { enter_safe_state(cause); });
    fmf_->attach();
  }

  if (config_.with_self_supervision) {
    wdg::SelfSupervisionConfig ss_config = config_.self_supervision;
    // A watchdog check period swept past the HW timeout must not look like
    // a hung watchdog task.
    const sim::Duration floor = config_.watchdog.check_period * 5;
    if (ss_config.hw_timeout < floor) ss_config.hw_timeout = floor;
    self_supervision_ =
        std::make_unique<wdg::WatchdogSelfSupervision>(engine_, ss_config);
    self_supervision_->set_expire_callback(
        [this](sim::SimTime now) { on_hw_watchdog_expired(now); });
    service_->attach_self_supervision(self_supervision_.get());
  }

  if (config_.policy) apply_policy_bindings();
}

void CentralNode::apply_policy_bindings() {
  const policy::PolicySet& pol = *config_.policy;
  // Per-role FMF treatment selection. Under the baseline policy every
  // role carries the FMF's default (restart, 3 restarts), so setting the
  // policies explicitly is behaviourally identical to not setting them.
  if (fmf_) {
    auto to_fmf = [](const policy::RoleTreatment& role) {
      fmf::ApplicationPolicy app_policy;
      app_policy.on_faulty = policy::to_fmf_action(role.on_faulty);
      app_policy.max_restarts = role.max_restarts;
      return app_policy;
    };
    fmf_->set_application_policy(safespeed_->application(),
                                 to_fmf(pol.treatment.safety));
    if (safelane_) {
      fmf_->set_application_policy(safelane_->application(),
                                   to_fmf(pol.treatment.assist));
    }
    if (light_) {
      fmf_->set_application_policy(light_->application(),
                                   to_fmf(pol.treatment.qm));
    }
    if (crash_) {
      fmf_->set_application_policy(crash_->application(),
                                   to_fmf(pol.treatment.qm));
    }
  }
  // HBM scale/tolerances over every heartbeat-monitored runnable. Guarded
  // so the baseline (scale 1, tolerances 0) leaves the hypotheses
  // untouched bit-for-bit.
  const double scale = pol.detection.hbm_scale;
  const std::uint32_t alive_tol = pol.detection.aliveness_tolerance;
  const std::uint32_t arrival_tol = pol.detection.arrival_tolerance;
  if (scale != 1.0 || alive_tol != 0 || arrival_tol != 0) {
    auto scaled = [scale](std::uint32_t cycles) {
      const double v = static_cast<double>(cycles) * scale;
      return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(v + 0.5));
    };
    const sim::Duration check = watchdog_.config().check_period;
    for (RunnableId runnable :
         watchdog_.heartbeat_unit().monitored_runnables()) {
      const wdg::RunnableMonitor& cfg =
          watchdog_.heartbeat_unit().config(runnable);
      if (!cfg.monitor_aliveness && !cfg.monitor_arrival_rate) continue;
      const std::uint32_t alive_cycles = scaled(cfg.aliveness_cycles);
      const std::uint32_t arrival_cycles = scaled(cfg.arrival_cycles);
      std::uint32_t min_hb =
          cfg.min_heartbeats > alive_tol ? cfg.min_heartbeats - alive_tol : 0;
      std::uint32_t max_arr = cfg.max_arrivals + arrival_tol;
      // The scaled hypothesis must remain satisfiable at the runnable's
      // nominal rate, or the boot-time config check rejects it (guaranteed
      // false positives). Clamp the bounds the same way the checker
      // derives them from the task period.
      const sim::Duration period = nominal_period_of(runnable);
      if (period > sim::Duration::zero()) {
        const std::int64_t expected_aliveness =
            (static_cast<std::int64_t>(alive_cycles) * check.as_micros()) /
            period.as_micros();
        min_hb = std::min<std::uint32_t>(
            min_hb, static_cast<std::uint32_t>(expected_aliveness));
        const std::int64_t expected_arrivals =
            (static_cast<std::int64_t>(arrival_cycles) * check.as_micros() +
             period.as_micros() - 1) /
            period.as_micros();
        max_arr = std::max<std::uint32_t>(
            max_arr, static_cast<std::uint32_t>(expected_arrivals));
      }
      watchdog_.update_hypothesis(runnable, alive_cycles, min_hb,
                                  arrival_cycles, max_arr);
    }
  }
  // Deadline window scale (no-op at factor 1).
  watchdog_.scale_deadline_windows(pol.detection.deadline_scale);
}

sim::Duration CentralNode::nominal_period_of(RunnableId id) {
  // Virtual runnables (e.g. CMU communication channels) are monitored by
  // the watchdog but unknown to the RTE.
  if (!id.valid() || id.value() >= ecu_.rte().runnable_count()) {
    return sim::Duration::zero();
  }
  const TaskId task = ecu_.rte().task_of(id);
  if (task == safespeed_task_) return config_.safespeed.period;
  if (safelane_ && task == safelane_task_) return config_.safelane.period;
  if (light_ && task == light_task_) return config_.light.period;
  return sim::Duration::zero();  // sporadic (crash detection)
}

policy::CheckSupervisionUnit* CentralNode::attach_check_supervision() {
  if (csu_) return csu_.get();
  if (!config_.policy || config_.policy->checks.empty()) return nullptr;
  // Check evaluations are accounted like the ESU channels: to a QM
  // application when present, to the safety application otherwise.
  TaskId account_task = safespeed_task_;
  ApplicationId account_app = safespeed_->application();
  if (light_) {
    account_task = light_task_;
    account_app = light_->application();
  }
  attach_process_supervision();
  csu_ = std::make_unique<policy::CheckSupervisionUnit>(
      watchdog_, *psu_, ecu_.signals(), account_task, account_app);
  for (const policy::CheckRule& rule : config_.policy->checks) {
    csu_->add_rule(rule);
  }
  return csu_.get();
}

void CentralNode::start() {
  if (!ecu_.rte().finalized()) ecu_.rte().finalize();
  if (started_once_ && kernel().started()) {
    throw std::logic_error("CentralNode: already started");
  }
  if (!started_once_) {
    // Boot-time self check: a watchdog configuration with guaranteed
    // false positives or flow-table defects must not go into operation.
    const auto findings = wdg::ConfigChecker::check(
        watchdog_, [this](RunnableId id) { return nominal_period_of(id); });
    if (!wdg::ConfigChecker::acceptable(findings)) {
      std::ostringstream report;
      wdg::ConfigChecker::write(report, findings);
      throw std::logic_error("CentralNode: watchdog configuration invalid\n" +
                             report.str());
    }
    for (const auto& finding : findings) {
      EASIS_LOG(util::LogLevel::kWarn, "validator") << finding.message;
    }
  }
  started_once_ = true;
  kernel().start();
  if (fmf_) fmf_->boot_from_nvm(engine_.now());
  arm_alarms();
  if (crash_) crash_->start();
  if (self_supervision_ && !safe_state_) self_supervision_->start();
  schedule_environment(++env_generation_);
  schedule_resource_cycles(env_generation_);
  schedule_environment_cycles(env_generation_);
}

void CentralNode::software_reset() {
  ++resets_;
  // The reset-cause record and the DTC store must survive the teardown.
  if (fmf_) fmf_->persist();
  if (self_supervision_) self_supervision_->stop();
  kernel().software_reset();
  watchdog_.reset(engine_.now());
  ++boot_generation_;
  if (config_.reboot_delay.as_micros() > 0) {
    // Reboot blackout: the ECU is dark, nothing runs until the delayed
    // boot. The environment keeps its state and resumes with the boot.
    rebooting_ = true;
    ++env_generation_;
    const std::uint64_t boot_gen = boot_generation_;
    engine_.schedule_in(
        config_.reboot_delay,
        [this, boot_gen] {
          if (boot_gen != boot_generation_) return;
          boot_after_reset();
        },
        sim::EventPriority::kDefault);
    return;
  }
  boot_after_reset();
}

void CentralNode::boot_after_reset() {
  rebooting_ = false;
  kernel().start();
  // Re-seed the fault memory from NVM before anything runs: the post-boot
  // FMF/DTC view continues where the pre-reset ECU left off.
  if (fmf_) fmf_->boot_from_nvm(engine_.now());
  arm_alarms();
  if (crash_) crash_->start();
  if (self_supervision_ && !safe_state_) self_supervision_->start();
  schedule_environment(++env_generation_);
  schedule_resource_cycles(env_generation_);
  schedule_environment_cycles(env_generation_);
  // Post-reset recovery validation: the warm-up window supervises the
  // re-announcement of every monitored runnable (no-op when disabled).
  if (fmf_) fmf_->begin_ecu_recovery_window(engine_.now());
}

diag::DiagServer& CentralNode::attach_diag(bus::CanBus& can,
                                           diag::DiagServerConfig config) {
  diag::DiagBackend backend;
  backend.dtcs = dtc_.get();
  backend.fmf = fmf_.get();
  backend.watchdog = &watchdog_;
  backend.ecu_reset = [this] {
    fmf::ResetCause cause;
    cause.source = fmf::ResetSource::kDiagnosticRequest;
    cause.time = engine_.now();
    cause.detail = "commanded ECUReset (diagnostic service 0x11)";
    if (fmf_) {
      fmf_->request_reset(std::move(cause), engine_.now());
      return;
    }
    software_reset();
  };
  backend.offline = [this] { return rebooting_; };
  if (config_.policy) {
    // The hash is content-derived and immutable for the node's lifetime,
    // so it is computed once, not per request.
    const std::uint32_t hash24 = policy::version_hash24(*config_.policy);
    const std::uint32_t version = config_.policy->version;
    backend.policy_hash = [hash24] { return hash24; };
    backend.policy_version = [version] { return version; };
  }
  backend.environment = esu_.get();
  backend.process = psu_.get();
  backend.nvm = nvm_;
  diag_ = std::make_unique<diag::DiagServer>(engine_, can, std::move(backend),
                                             std::move(config));
  return *diag_;
}

wdg::ResourceSupervisionUnit& CentralNode::attach_resource_supervision() {
  if (!rsu_) {
    rsu_ = std::make_unique<wdg::ResourceSupervisionUnit>(
        watchdog_, ecu_.kernel(), ecu_.signals());
  }
  return *rsu_;
}

void CentralNode::schedule_resource_cycles(std::uint64_t generation) {
  if (!rsu_) return;
  engine_.schedule_in(
      config_.watchdog.check_period,
      [this, generation] {
        if (generation != env_generation_) return;
        rsu_->cycle(engine_.now());
        schedule_resource_cycles(generation);
      },
      sim::EventPriority::kMonitor);
}

wdg::EnvironmentSupervisionUnit& CentralNode::attach_environment_supervision() {
  if (esu_) return *esu_;
  esu_ = std::make_unique<wdg::EnvironmentSupervisionUnit>(watchdog_,
                                                           ecu_.signals());
  // The thermal channel's faults are accounted to a QM application when
  // one is present (its FMF policy carries the sensor-fault treatment);
  // the safety application only inherits them on a stripped-down node.
  TaskId account_task = safespeed_task_;
  ApplicationId account_app = safespeed_->application();
  if (light_) {
    account_task = light_task_;
    account_app = light_->application();
  }
  wdg::ThermalChannel thermal;
  thermal.id = RunnableId{2100};
  thermal.task = account_task;
  thermal.application = account_app;
  thermal.name = "ecu";
  thermal.limits = config_.thermal_limits;
  thermal.probe = [this] { return thermal_model_.sensor_c(); };
  esu_->add_thermal(thermal);
  if (nvm_ != nullptr) {
    wdg::FilesystemChannel fs;
    fs.id = RunnableId{2101};
    fs.task = account_task;
    fs.application = account_app;
    fs.name = "faultmem";
    fs.limits = config_.filesystem_limits;
    fs.fill_probe = [this] { return nvm_->fill_level(); };
    fs.wear_probe = [this] { return nvm_->wear_level(); };
    fs.write_error_probe = [this] {
      return static_cast<std::uint64_t>(nvm_->write_errors()) +
             (fmf_ ? fmf_->nvm_write_failures() : 0u);
    };
    fs.overflow_probe = [this] {
      return static_cast<std::uint64_t>(nvm_->overflows());
    };
    esu_->add_filesystem(fs);
  }
  esu_->set_derate_hooks(
      [this](sim::SimTime now) { enter_thermal_derate(now); },
      [this](sim::SimTime now) { exit_thermal_derate(now); });
  esu_->set_shutdown_hook([this](sim::SimTime now) {
    fmf::ResetCause cause;
    cause.source = fmf::ResetSource::kThermalShutdown;
    cause.error = wdg::ErrorType::kThermal;
    cause.time = now;
    cause.detail = "thermal ladder reached shutdown stage";
    if (fmf_) {
      fmf_->request_safe_state(std::move(cause), now);
      return;
    }
    enter_safe_state(cause);
  });
  return *esu_;
}

wdg::ProcessSupervisionUnit& CentralNode::attach_process_supervision() {
  if (psu_) return *psu_;
  psu_ = std::make_unique<wdg::ProcessSupervisionUnit>(watchdog_);
  if (fmf_) {
    fmf_->attach_transgression_store(
        [this] { return psu_->persisted_records(); },
        [this](const std::vector<wdg::TransgressionRecord>& records) {
          psu_->restore_records(records);
        });
  }
  return *psu_;
}

void CentralNode::schedule_environment_cycles(std::uint64_t generation) {
  if (!esu_ && !psu_ && !csu_) return;
  engine_.schedule_in(
      config_.watchdog.check_period,
      [this, generation] {
        if (generation != env_generation_) return;
        if (esu_) esu_->cycle(engine_.now());
        // Check evaluations run before the process-supervision cycle so a
        // window opened this cycle is not instantly reported overdue.
        if (csu_) csu_->cycle(engine_.now());
        if (psu_) psu_->cycle(engine_.now());
        schedule_environment_cycles(generation);
      },
      sim::EventPriority::kMonitor);
}

void CentralNode::enter_thermal_derate(sim::SimTime now) {
  if (derated_) return;
  derated_ = true;
  EASIS_LOG(util::LogLevel::kWarn, "validator")
      << "thermal derate: parking QM applications, stretching HBM "
      << "hypotheses x" << config_.derate_hbm_stretch;
  // Park the QM applications (reversible, unlike the safe state).
  auto park = [this](ApplicationId app) {
    for (RunnableId runnable : ecu_.rte().runnables_of_application(app)) {
      if (watchdog_.heartbeat_unit().monitors(runnable)) {
        watchdog_.set_activation_status(runnable, false);
      }
    }
    ecu_.rte().set_application_enabled(app, false);
  };
  if (safelane_) park(safelane_->application());
  if (light_) park(light_->application());
  if (crash_) park(crash_->application());
  // Stretch the HBM hypotheses of the runnables that keep running: the
  // derated (slower) node must not trip aliveness monitoring.
  stretched_.clear();
  const std::uint32_t f = std::max<std::uint32_t>(config_.derate_hbm_stretch,
                                                  1);
  for (RunnableId runnable :
       watchdog_.heartbeat_unit().monitored_runnables()) {
    if (!watchdog_.activation_status(runnable)) continue;
    const wdg::RunnableMonitor& cfg =
        watchdog_.heartbeat_unit().config(runnable);
    if (!cfg.monitor_aliveness && !cfg.monitor_arrival_rate) continue;
    stretched_.emplace_back(runnable, cfg);
    watchdog_.update_hypothesis(runnable, cfg.aliveness_cycles * f,
                                cfg.min_heartbeats, cfg.arrival_cycles * f,
                                cfg.max_arrivals * f);
  }
  (void)now;
}

void CentralNode::exit_thermal_derate(sim::SimTime now) {
  if (!derated_) return;
  derated_ = false;
  if (safe_state_) return;  // the safe state owns the configuration now
  EASIS_LOG(util::LogLevel::kInfo, "validator")
      << "thermal derate over: restoring HBM hypotheses, re-enabling QM "
      << "applications";
  for (const auto& [runnable, cfg] : stretched_) {
    watchdog_.update_hypothesis(runnable, cfg.aliveness_cycles,
                                cfg.min_heartbeats, cfg.arrival_cycles,
                                cfg.max_arrivals);
  }
  stretched_.clear();
  auto unpark = [this, now](ApplicationId app) {
    ecu_.rte().set_application_enabled(app, true);
    for (RunnableId runnable : ecu_.rte().runnables_of_application(app)) {
      if (watchdog_.heartbeat_unit().monitors(runnable)) {
        watchdog_.set_activation_status(runnable, true);
        watchdog_.reset_runnable(runnable);
      }
    }
    for (TaskId task : ecu_.rte().tasks_of_application(app)) {
      watchdog_.clear_task_state(task, now);
    }
  };
  if (safelane_) unpark(safelane_->application());
  if (light_) unpark(light_->application());
  if (crash_) unpark(crash_->application());
}

void CentralNode::on_hw_watchdog_expired(sim::SimTime now) {
  ++hw_resets_;
  EASIS_LOG(util::LogLevel::kError, "validator")
      << "hardware watchdog expired at " << now
      << ": software watchdog task hung, starved or corrupted";
  fmf::ResetCause cause;
  cause.source = fmf::ResetSource::kHardwareWatchdog;
  cause.task = service_->task();
  cause.time = now;
  cause.detail =
      "hardware watchdog expired (software watchdog not serviced)";
  if (fmf_) {
    fmf_->request_reset(std::move(cause), now);
    return;
  }
  software_reset();
}

void CentralNode::enter_safe_state(const fmf::ResetCause& cause) {
  if (safe_state_) return;
  safe_state_ = true;
  EASIS_LOG(util::LogLevel::kError, "validator")
      << "entering limp-home safe state (" << fmf::to_string(cause.source)
      << "): SafeSpeed limp limit, assist applications disabled";
  // The HW watchdog must not reset the parked node.
  if (self_supervision_) self_supervision_->stop();
  safespeed_->set_limp_home(true);
  auto park = [this](ApplicationId app) {
    for (RunnableId runnable : ecu_.rte().runnables_of_application(app)) {
      if (watchdog_.heartbeat_unit().monitors(runnable)) {
        watchdog_.set_activation_status(runnable, false);
      }
    }
    ecu_.rte().set_application_enabled(app, false);
  };
  if (safelane_) park(safelane_->application());
  if (light_) park(light_->application());
  if (crash_) park(crash_->application());
}

void CentralNode::arm_alarms() {
  auto& kernel = ecu_.kernel();
  if (schedule_table_) {
    if (schedule_table_->running()) schedule_table_->stop();
    // First round starts one dispatcher period in (like the alarms).
    schedule_table_->start(config_.safespeed.period);
  } else {
    kernel.set_rel_alarm(safespeed_alarm_, safespeed_ticks_,
                         safespeed_ticks_);
    if (safelane_) {
      kernel.set_rel_alarm(safelane_alarm_, safelane_ticks_, safelane_ticks_);
    }
    if (light_) {
      kernel.set_rel_alarm(light_alarm_, light_ticks_, light_ticks_);
    }
  }
  service_->arm();
}

void CentralNode::schedule_environment(std::uint64_t generation) {
  engine_.schedule_in(
      config_.environment_step,
      [this, generation] {
        if (generation != env_generation_) return;
        auto& signals = ecu_.signals();
        vehicle_.set_drive_command(signals.read_or(drive_cmd_signal_, 0.0));
        vehicle_.step(config_.environment_step);
        lane_.step(config_.environment_step);
        thermal_model_.step(config_.environment_step,
                            rsu_ ? rsu_->load_average() : 0.0);
        signals.publish(speed_signal_, vehicle_.speed_kmh(), engine_.now());
        signals.publish(lane_offset_signal_, lane_.lateral_offset_m(),
                        engine_.now());
        schedule_environment(generation);
      },
      sim::EventPriority::kDefault);
}

}  // namespace easis::validator
