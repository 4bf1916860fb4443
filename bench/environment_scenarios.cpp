// Environmental-supervision campaign scenario (exp_environment_coverage).
//
// One run = one fresh central node whose environment is supervised:
//
//   ecu          - the junction-temperature model behind the thermal
//                  graceful-derating ladder (normal -> warn -> derate ->
//                  controlled shutdown), with sensor plausibility checks
//   faultmem     - the double-banked NVM journal of the fault memory
//                  (fill watermark, write errors, overflow, erase wear)
//   safespeed.cc - one instrumented deadline section over SafeSpeed's
//                  control runnable (the supervised-process client API)
//
// Eight fault classes attack them; four detectors watch, each one layer
// of the treatment chain: the ESU/PSU error reports, the DTC landing in
// fault memory, the class's treatment (derate parking, persistent safe
// state, evict-by-priority, degradation into load shedding, restart), and
// the post-run UDS-lite readout of the DTC plus the class's environment
// identifier.
#include "campaign_scenarios.hpp"

#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bus/can.hpp"
#include "diag/protocol.hpp"
#include "diag/tester.hpp"
#include "fmf/fmf.hpp"
#include "fmf/nvm.hpp"
#include "inject/campaign.hpp"
#include "inject/environment_faults.hpp"
#include "inject/injector.hpp"
#include "inject/resource_faults.hpp"
#include "sim/engine.hpp"
#include "util/random.hpp"
#include "validator/central_node.hpp"
#include "wdg/env_monitor.hpp"
#include "wdg/process_supervisor.hpp"

namespace easis::bench {

namespace {

constexpr std::int64_t kInjectAtUs = 2'000'000;
constexpr std::int64_t kReadoutAtUs = 6'000'000;
constexpr std::int64_t kRunUntilUs = 8'000'000;
/// Small journal for the fill class: a few flooded DTCs with freeze
/// frames cross the watermark and overflow the bank.
constexpr std::size_t kSmallNvmCapacity = 1536;
/// Deadline of the instrumented SafeSpeed control section: ~4x the
/// nominal 400 us control cost, far below the hogged cost.
constexpr std::int64_t kSectionDeadlineUs = 1'500;

wdg::ErrorType expected_environment_error(const std::string& fault_class) {
  if (fault_class == "flash_fill" || fault_class == "nvm_write_errors" ||
      fault_class == "flash_wear") {
    return wdg::ErrorType::kFilesystem;
  }
  if (fault_class == "deadline_transgression") {
    return wdg::ErrorType::kDeadline;
  }
  return wdg::ErrorType::kThermal;
}

std::string supervised_channel_of(const std::string& fault_class) {
  if (fault_class == "flash_fill" || fault_class == "nvm_write_errors" ||
      fault_class == "flash_wear") {
    return "faultmem";
  }
  if (fault_class == "deadline_transgression") return "safespeed.cc";
  return "ecu";
}

std::uint16_t class_did(const std::string& fault_class) {
  if (fault_class == "thermal_ramp") return diag::kDidTemperature;
  if (fault_class == "flash_fill") return diag::kDidFlashFill;
  if (fault_class == "nvm_write_errors") return diag::kDidFlashFill;
  if (fault_class == "flash_wear") return diag::kDidFlashWear;
  if (fault_class == "deadline_transgression") {
    return diag::kDidTransgressions;
  }
  return diag::kDidDerateStage;  // runaway and both sensor classes
}

}  // namespace

const std::vector<std::string>& environment_fault_classes() {
  static const std::vector<std::string> kClasses = {
      "thermal_ramp", "thermal_runaway", "sensor_stuck",
      "sensor_implausible", "flash_fill", "nvm_write_errors",
      "flash_wear", "deadline_transgression"};
  return kClasses;
}

const std::string& environment_fault_csv_header() {
  static const std::string kHeader =
      "fault_class,channel,expected_error,env_reports,stage_trace,"
      "treatment,dtc_found,did_value,evictions,write_errors,"
      "transgressions,accurate";
  return kHeader;
}

const CampaignFamily& environment_family() {
  static const CampaignFamily kFamily{
      .program = "exp_environment_coverage",
      .title = "Environmental detection coverage",
      .description =
          "environmental fault injection campaign (8 fault classes x --runs "
          "injections, 4 detectors each)",
      .default_seed = 0xE541,
      .default_runs = 25,
      .per_run = "4 detectors each",
      .classes = environment_fault_classes(),
      .run =
          [](const harness::RunContext& ctx) {
            return run_environment_fault(ctx.spec().label, ctx.spec().seed,
                                         &ctx);
          },
      .rows_header = environment_fault_csv_header(),
      .expected_shape =
          "every class detected end-to-end; the runaway class steps warn "
          "-> derate -> shutdown into the persistent safe state",
      // Every class must be caught by the ESU/PSU, land in fault memory,
      // be treated, and read back as a DTC -- and a runaway run must show
      // the full graceful ladder in its stage trace.
      .shape = [](const harness::CampaignReport& report, std::ostream& out) {
        bool ladder_walked = false;
        for (const auto& row : report.rows()) {
          if (row.size() > 4 && row[0] == "thermal_runaway") {
            ladder_walked |= row[4] == "normal>warn>derate>shutdown";
          }
        }
        out << "ladder trace: "
            << (ladder_walked ? "full ladder observed" : "MISSING") << '\n';
        return every_class_detected(report, environment_fault_classes(),
                                    {"env_report", "fault_memory",
                                     "treatment", "diag_readout"}) &&
               ladder_walked;
      }};
  return kFamily;
}

harness::RunResult run_environment_fault(const std::string& fault_class,
                                         std::uint64_t seed,
                                         const harness::RunContext* ctx) {
  util::Rng rng(seed);

  sim::Engine engine;
  validator::CentralNodeConfig config;
  // A fast thermal plant (tau 500 ms) so a ramp injected at t=2s walks
  // the whole ladder well before the t=6s readout; the limits sit below
  // the defaults for the same reason.
  config.thermal.time_constant = sim::Duration::millis(500);
  config.thermal_limits.warn_c = 60.0;
  config.thermal_limits.derate_c = 80.0;
  config.thermal_limits.shutdown_c = 105.0;
  if (fault_class == "flash_fill") config.nvm_capacity = kSmallNvmCapacity;
  // Environment DTC freeze frames carry the ESU's bus signals next to the
  // vehicle state: the post-mortem shows how hot/full the node was.
  config.extra_frame_signals = {"env.ecu.temp_c", "env.ecu.stage",
                                "env.faultmem.fill.level",
                                "env.faultmem.wear.level"};
  validator::CentralNode node(engine, config);

  // --- supervised environment -------------------------------------------------
  wdg::EnvironmentSupervisionUnit& esu =
      node.attach_environment_supervision();
  wdg::ProcessSupervisionUnit& psu = node.attach_process_supervision();
  wdg::SectionConfig section;
  section.name = "safespeed.cc";
  section.runnable = node.safespeed().safe_cc_process();
  section.task = node.safespeed_task();
  section.application = node.safespeed().application();
  section.deadline = sim::Duration::micros(kSectionDeadlineUs);
  const std::size_t cc_section = psu.add_section(section);
  psu.bind_kernel(node.kernel());

  const ApplicationId ss_app = node.safespeed().application();
  const ApplicationId light_app = node.light_control()->application();
  const RunnableId thermal_id{2100};
  const RunnableId fs_id{2101};

  fmf::FaultManagementFramework* fmf = node.fault_management();
  if (fault_class == "flash_wear") {
    node.nvm()->set_erase_budget(
        static_cast<std::uint32_t>(rng.uniform_int(48, 60)));
  }

  // --- treatments -------------------------------------------------------------
  // Environmental faults are accounted to the QM light-control
  // application; its policy degrades it (load shedding) instead of
  // restarting — restarting an app does not cool a die or heal flash.
  fmf::ApplicationPolicy degrade;
  degrade.on_faulty = fmf::TreatmentAction::kDegrade;
  fmf->set_application_policy(light_app, degrade);
  fmf->set_degraded_mode(
      light_app,
      [&node, light_app] {
        for (RunnableId runnable :
             node.rte().runnables_of_application(light_app)) {
          if (node.watchdog().heartbeat_unit().monitors(runnable)) {
            node.watchdog().set_activation_status(runnable, false);
          }
        }
        node.rte().set_application_enabled(light_app, false);
      },
      [&node, light_app] {
        node.rte().set_application_enabled(light_app, true);
      });

  // --- detectors --------------------------------------------------------------
  inject::DetectionRecorder recorder;
  recorder.add_detector("env_report");
  recorder.add_detector("fault_memory");
  recorder.add_detector("treatment");
  recorder.add_detector("diag_readout");

  const wdg::ErrorType expected_type =
      expected_environment_error(fault_class);
  const ApplicationId expected_app =
      expected_type == wdg::ErrorType::kDeadline ? ss_app : light_app;

  node.watchdog().add_error_listener([&](const wdg::ErrorReport& report) {
    if (report.type == expected_type) {
      recorder.record("env_report", report.time);
    }
  });

  // Per-class treatment predicate, polled by the 10 ms sampler below.
  std::function<bool()> treated;
  if (fault_class == "thermal_ramp") {
    // The derate stage of the ladder parks the QM applications.
    treated = [&node, light_app] {
      return !node.rte().application_enabled(light_app);
    };
  } else if (fault_class == "thermal_runaway") {
    // The shutdown stage latches the persistent safe state.
    treated = [&node] { return node.in_safe_state(); };
  } else if (fault_class == "sensor_stuck" ||
             fault_class == "sensor_implausible") {
    // FMF degradation via the TSI, or the precautionary derate parking —
    // whichever lands first, the QM application is off the bus.
    treated = [&node, fmf, light_app] {
      return fmf->is_degraded(light_app) ||
             !node.rte().application_enabled(light_app);
    };
  } else if (fault_class == "flash_fill") {
    // Evict-by-priority: the fault memory degraded gracefully instead of
    // losing the commit.
    treated = [fmf] { return fmf->nvm_evictions() > 0; };
  } else if (fault_class == "nvm_write_errors") {
    // Recovery: commits resume once the transient burst is exhausted.
    auto commits_at_error = std::make_shared<std::optional<std::uint32_t>>();
    treated = [&node, commits_at_error] {
      if (node.nvm()->write_errors() == 0) return false;
      if (!commits_at_error->has_value()) {
        *commits_at_error = node.nvm()->commits();
        return false;
      }
      return node.nvm()->commits() > **commits_at_error;
    };
  } else if (fault_class == "flash_wear") {
    treated = [fmf, light_app] { return fmf->is_degraded(light_app); };
  } else if (fault_class == "deadline_transgression") {
    treated = [&node, ss_app] {
      return node.rte().restart_count(ss_app) > 0;
    };
  } else {
    throw std::invalid_argument("unknown environment fault class: " +
                                fault_class);
  }

  // --- steady workload --------------------------------------------------------
  // The fault memory sees a periodic maintenance commit (the journal is
  // alive without a fault; this is also what retries after a write-error
  // burst), and two samplers poll the treatment predicate and the DTC
  // store every supervision-ish period.
  std::function<void()> maintenance = [&] {
    fmf->persist();
    engine.schedule_in(sim::Duration::millis(250), maintenance);
  };
  std::function<void()> state_sampler = [&] {
    if (treated()) recorder.record("treatment", engine.now());
    if (node.dtc_store() != nullptr &&
        node.dtc_store()->entry({expected_app, expected_type}) != nullptr) {
      recorder.record("fault_memory", engine.now());
    }
    engine.schedule_in(sim::Duration::millis(10), state_sampler);
  };
  engine.schedule_in(sim::Duration::millis(250), maintenance);
  engine.schedule_in(sim::Duration::millis(10), state_sampler);

  std::function<void()> note_loop = [&engine, &esu, ctx, &note_loop] {
    ctx->set_flight_note(esu.format_snapshot());
    engine.schedule_in(sim::Duration::millis(100), note_loop);
  };
  if (ctx != nullptr) {
    engine.schedule_in(sim::Duration::millis(100), note_loop);
  }

  // --- injection --------------------------------------------------------------
  const sim::SimTime inject_at(kInjectAtUs);
  inject::ErrorInjector injector(engine);
  if (fault_class == "thermal_ramp") {
    // Ambient into the derate band (junction = ambient + 8 C idle rise
    // stays below the 105 C shutdown boundary); held past the readout.
    injector.add(inject::make_thermal_ramp(
        engine, node.thermal_model(), rng.uniform(85.0, 93.0), 4.0,
        sim::Duration::millis(50), inject_at,
        sim::Duration::millis(rng.uniform_int(4200, 4800))));
  } else if (fault_class == "thermal_runaway") {
    // Ambient past the shutdown boundary: the ladder must walk
    // warn -> derate -> shutdown and latch the safe state.
    injector.add(inject::make_thermal_ramp(
        engine, node.thermal_model(), rng.uniform(115.0, 125.0), 6.0,
        sim::Duration::millis(40), inject_at,
        sim::Duration::millis(5000)));
  } else if (fault_class == "sensor_stuck") {
    injector.add(inject::make_sensor_stuck(
        node.thermal_model(), inject_at,
        sim::Duration::millis(rng.uniform_int(2500, 3500))));
  } else if (fault_class == "sensor_implausible") {
    injector.add(inject::make_sensor_offset(
        node.thermal_model(), rng.uniform(140.0, 160.0), inject_at,
        sim::Duration::millis(rng.uniform_int(2500, 3500))));
  } else if (fault_class == "flash_fill") {
    injector.add(inject::make_dtc_flood(
        engine, *fmf, /*first_app=*/600,
        static_cast<std::uint32_t>(rng.uniform_int(2, 4)),
        sim::Duration::millis(100), inject_at,
        sim::Duration::millis(rng.uniform_int(2500, 3500))));
  } else if (fault_class == "nvm_write_errors") {
    injector.add(inject::make_nvm_write_fault_burst(
        *node.nvm(), static_cast<std::uint32_t>(rng.uniform_int(6, 11)),
        inject_at));
  } else if (fault_class == "flash_wear") {
    injector.add(inject::make_commit_storm(
        engine, *fmf, sim::Duration::millis(20), inject_at,
        sim::Duration::millis(rng.uniform_int(2500, 3500))));
  } else {  // deadline_transgression
    // The hogged control runnable (400 us -> 3.2..4.8 ms) blows the
    // 1.5 ms section deadline every period but still fits the 10 ms task.
    injector.add(inject::make_cpu_hog(
        node.rte(), node.safespeed().safe_cc_process(),
        rng.uniform(8.0, 12.0), inject_at,
        sim::Duration::millis(rng.uniform_int(1000, 1500))));
  }
  injector.arm();
  recorder.mark_injection(inject_at);

  // --- post-run UDS-lite readout ----------------------------------------------
  bus::CanBus diag_can(engine);
  node.attach_diag(diag_can);
  diag::DiagTesterConfig tester_config;
  tester_config.name = "workshop";
  diag::DiagTester tester(engine, diag_can, tester_config);

  bool dtc_found = false;
  std::optional<double> did_value;
  const auto expected_app_raw =
      static_cast<std::uint16_t>(expected_app.value());
  engine.schedule_at(sim::SimTime(kReadoutAtUs), [&] {
    tester.read_dtcs([&](const std::optional<diag::Response>& response) {
      if (!response || !response->positive) return;
      const auto readout = diag::decode_dtc_readout(response->data);
      if (!readout) return;
      for (const auto& record : readout->records) {
        if (record.type == expected_type &&
            record.application == expected_app_raw) {
          dtc_found = true;
          recorder.record("diag_readout", engine.now());
          break;
        }
      }
    });
    tester.read_data(class_did(fault_class),
                     [&](const std::optional<diag::Response>& response) {
                       if (!response || !response->positive) return;
                       did_value = diag::get_f32(response->data, 2);
                     });
  });

  node.start();
  engine.run_until(sim::SimTime(kRunUntilUs));

  // --- reduction --------------------------------------------------------------
  harness::RunResult result;
  for (const auto& detector : recorder.detectors()) {
    result.coverage.add_result(fault_class, detector,
                               recorder.detected(detector),
                               recorder.latency(detector));
  }

  const std::string channel = supervised_channel_of(fault_class);
  const std::uint64_t env_reports =
      channel == "ecu"
          ? esu.reports_for(thermal_id)
          : (channel == "faultmem" ? esu.reports_for(fs_id)
                                   : psu.record(cc_section).count);
  bool accurate = recorder.detected("env_report") && dtc_found;
  // The runaway class must show the whole ladder: every stage stepped
  // through observably, never a jump from normal into shutdown.
  if (fault_class == "thermal_runaway" &&
      esu.stage_trace() != "normal>warn>derate>shutdown") {
    accurate = false;
  }
  result.rows.push_back(
      {fault_class, channel, std::string(wdg::to_string(expected_type)),
       std::to_string(env_reports), esu.stage_trace(),
       recorder.detected("treatment") ? "1" : "0", dtc_found ? "1" : "0",
       did_value ? std::to_string(std::llround(*did_value)) : "-",
       std::to_string(fmf->nvm_evictions()),
       std::to_string(node.nvm()->write_errors()),
       std::to_string(psu.transgressions()), accurate ? "1" : "0"});
  if (!accurate) {
    result.misdetect =
        "environment fault '" + fault_class +
        "' not detected end-to-end (env_report=" +
        (recorder.detected("env_report") ? "1" : "0") +
        ", dtc_found=" + (dtc_found ? "1" : "0") +
        ", trace=" + esu.stage_trace() + ")";
  }
  if (ctx != nullptr) ctx->set_flight_note(esu.format_snapshot());
  return result;
}

}  // namespace easis::bench
