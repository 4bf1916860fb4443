// Resource-exhaustion campaign scenario (exp_resource_coverage).
//
// One run = one fresh central node whose resources are budgeted and
// supervised:
//
//   safespeed.mem     - SafeSpeed's heap budget (1 MiB)
//   safespeed.handles - SafeSpeed's descriptor budget (32 of a 64 pool)
//   lane.queue        - the bounded lane-sample queue (16 deep), fed by a
//                       10 ms producer and drained by a 10 ms consumer
//   ecu.load          - the modelled CPU-load average, attributed to the
//                       QM light-control application (the load-shedding
//                       target)
//
// Six fault classes attack them; four detectors watch, each one layer of
// the treatment chain: the RSU's error reports, the TSI task state, the
// FMF treatment (restart with pool reclaim / degrade into load shedding),
// and the post-run UDS-lite readout of the resource DTC.
#include "campaign_scenarios.hpp"

#include <functional>
#include <optional>
#include <stdexcept>

#include "bus/can.hpp"
#include "diag/protocol.hpp"
#include "diag/tester.hpp"
#include "fmf/fmf.hpp"
#include "inject/campaign.hpp"
#include "inject/injector.hpp"
#include "inject/resource_faults.hpp"
#include "sim/engine.hpp"
#include "util/random.hpp"
#include "validator/central_node.hpp"
#include "wdg/resource_monitor.hpp"

namespace easis::bench {

namespace {

constexpr std::int64_t kInjectAtUs = 2'000'000;
constexpr std::int64_t kReadoutAtUs = 6'000'000;
constexpr std::int64_t kRunUntilUs = 8'000'000;
constexpr std::uint64_t kMemoryBudget = 1u << 20;  // 1 MiB
constexpr std::uint32_t kHandleBudget = 32;
constexpr std::uint32_t kHandlePool = 64;
constexpr std::uint32_t kQueueDepth = 16;

wdg::ErrorType expected_resource_error(const std::string& fault_class) {
  if (fault_class == "handle_exhaustion") {
    return wdg::ErrorType::kHandleExhaustion;
  }
  if (fault_class == "queue_flood") return wdg::ErrorType::kQueueOverflow;
  if (fault_class == "cpu_hog" || fault_class == "creeping_load") {
    return wdg::ErrorType::kCpuOverload;
  }
  return wdg::ErrorType::kMemoryBudget;  // memory_leak, memory_burst
}

std::string supervised_resource_of(const std::string& fault_class) {
  if (fault_class == "handle_exhaustion") return "safespeed.handles";
  if (fault_class == "queue_flood") return "lane.queue";
  if (fault_class == "cpu_hog" || fault_class == "creeping_load") {
    return "ecu.load";
  }
  return "safespeed.mem";
}

}  // namespace

const std::vector<std::string>& resource_fault_classes() {
  static const std::vector<std::string> kClasses = {
      "memory_leak", "memory_burst", "handle_exhaustion",
      "queue_flood", "cpu_hog",      "creeping_load"};
  return kClasses;
}

const std::string& resource_fault_csv_header() {
  static const std::string kHeader =
      "fault_class,resource,expected_error,rsu_reports,task_faulty,"
      "treatment,dtc_found,freeze_frame,level_pct,accurate";
  return kHeader;
}

const CampaignFamily& resource_family() {
  static const CampaignFamily kFamily{
      .program = "exp_resource_coverage",
      .title = "Resource-exhaustion detection coverage",
      .description =
          "resource-exhaustion fault injection campaign (6 fault classes x "
          "--runs injections, 4 detectors each)",
      .default_seed = 0x5E50,
      .default_runs = 25,
      .per_run = "4 detectors each",
      .classes = resource_fault_classes(),
      .run =
          [](const harness::RunContext& ctx) {
            return run_resource_fault(ctx.spec().label, ctx.spec().seed,
                                      &ctx);
          },
      .rows_header = resource_fault_csv_header(),
      .expected_shape =
          "every class detected by the RSU and readable as a DTC; "
          "memory/handle/queue faults end in a restart, CPU faults in load "
          "shedding",
      // Every class must be caught by the RSU, roll its task to faulty, be
      // treated, and read back as a DTC.
      .shape = [](const harness::CampaignReport& report, std::ostream&) {
        return every_class_detected(
            report, resource_fault_classes(),
            {"rsu_report", "task_state", "treatment", "diag_readout"});
      }};
  return kFamily;
}

harness::RunResult run_resource_fault(const std::string& fault_class,
                                      std::uint64_t seed,
                                      const harness::RunContext* ctx) {
  util::Rng rng(seed);

  sim::Engine engine;
  validator::CentralNodeConfig config;
  config.dtc_capacity = 8;
  // Resource DTC freeze frames must carry the offending task's resource
  // snapshot: capture the RSU's level signals next to the vehicle state.
  config.extra_frame_signals = {
      "res.safespeed.mem.level", "res.safespeed.handles.level",
      "res.lane.queue.level", "res.ecu.load.level"};
  validator::CentralNode node(engine, config);

  // --- budgets and supervised resources ---------------------------------------
  node.kernel().set_task_resource_budget(
      node.safespeed_task(), os::TaskResourceBudget{kMemoryBudget,
                                                    kHandleBudget});
  node.kernel().set_handle_pool_capacity(kHandlePool);
  node.signals().configure_queue("lane.samples", kQueueDepth);

  wdg::ResourceSupervisionUnit& rsu = node.attach_resource_supervision();
  const ApplicationId ss_app = node.safespeed().application();
  const ApplicationId lane_app = node.safelane()->application();
  const ApplicationId light_app = node.light_control()->application();

  wdg::SupervisedResource mem;
  mem.id = RunnableId{2000};
  mem.task = node.safespeed_task();
  mem.application = ss_app;
  mem.name = "safespeed.mem";
  mem.resource_class = wdg::ResourceClass::kMemory;
  mem.limits.watermark = 0.8;
  mem.limits.window_cycles = 3;
  mem.limits.leak_rate_per_s = 0.05;
  rsu.add_resource(mem);

  wdg::SupervisedResource handles;
  handles.id = RunnableId{2001};
  handles.task = node.safespeed_task();
  handles.application = ss_app;
  handles.name = "safespeed.handles";
  handles.resource_class = wdg::ResourceClass::kHandles;
  handles.limits.watermark = 0.85;
  handles.limits.window_cycles = 3;
  rsu.add_resource(handles);

  wdg::SupervisedResource queue;
  queue.id = RunnableId{2002};
  queue.task = node.safelane_task();
  queue.application = lane_app;
  queue.name = "lane.queue";
  queue.resource_class = wdg::ResourceClass::kQueue;
  queue.limits.watermark = 0.75;
  queue.limits.window_cycles = 3;
  queue.queue_signal = "lane.samples";
  rsu.add_resource(queue);

  wdg::SupervisedResource load;
  load.id = RunnableId{2003};
  load.task = node.light_task();
  load.application = light_app;
  load.name = "ecu.load";
  load.resource_class = wdg::ResourceClass::kCpuLoad;
  load.limits.watermark = 0.7;
  load.limits.window_cycles = 5;
  rsu.add_resource(load);
  // The 10 ms supervision cycle beats against the 50 ms period of the
  // hogged runnable; heavier smoothing keeps the load average a duty-cycle
  // mean instead of a sawtooth that dips below the watermark every period.
  rsu.set_load_smoothing(0.1);

  // --- treatments -------------------------------------------------------------
  // CPU overload is treated by load shedding, not restart: the QM
  // light-control application drops out (the park idiom of the safe
  // state) so the safety applications keep their budget.
  fmf::FaultManagementFramework* fmf = node.fault_management();
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
  recorder.add_detector("rsu_report");
  recorder.add_detector("task_state");
  recorder.add_detector("treatment");
  recorder.add_detector("diag_readout");

  const wdg::ErrorType expected_type = expected_resource_error(fault_class);
  const TaskId bound_task = fault_class == "queue_flood"
                                ? node.safelane_task()
                                : (expected_type == wdg::ErrorType::kCpuOverload
                                       ? node.light_task()
                                       : node.safespeed_task());
  const ApplicationId bound_app =
      fault_class == "queue_flood"
          ? lane_app
          : (expected_type == wdg::ErrorType::kCpuOverload ? light_app
                                                           : ss_app);

  node.watchdog().add_error_listener([&](const wdg::ErrorReport& report) {
    if (report.type == expected_type) {
      recorder.record("rsu_report", report.time);
    }
  });
  // The faulty window closes synchronously (the FMF's treatment clears the
  // task state in the same event), so a poller would miss it: listen.
  node.watchdog().add_task_state_listener(
      [&](TaskId task, wdg::Health health, sim::SimTime now) {
        if (task == bound_task && health == wdg::Health::kFaulty) {
          recorder.record("task_state", now);
        }
      });

  // --- steady workload --------------------------------------------------------
  // The lane queue sees one sample in and two drained every 10 ms (never
  // backs up without a fault); SafeSpeed churns a small allocation and a
  // handle every 20 ms (alive but balanced resource traffic).
  std::function<void()> lane_traffic = [&] {
    node.signals().publish("lane.samples", 1.0, engine.now());
    node.signals().drain("lane.samples", 2);
    engine.schedule_in(sim::Duration::millis(10), lane_traffic);
  };
  std::function<void()> churn = [&] {
    if (node.kernel().task_alloc(node.safespeed_task(), 4096)) {
      node.kernel().task_free(node.safespeed_task(), 4096);
    }
    if (node.kernel().task_acquire_handles(node.safespeed_task(), 1)) {
      node.kernel().task_release_handles(node.safespeed_task(), 1);
    }
    engine.schedule_in(sim::Duration::millis(20), churn);
  };
  std::function<void()> state_sampler = [&] {
    if (node.rte().restart_count(bound_app) > 0 ||
        fmf->is_degraded(bound_app)) {
      recorder.record("treatment", engine.now());
    }
    engine.schedule_in(sim::Duration::millis(10), state_sampler);
  };
  engine.schedule_in(sim::Duration::millis(10), lane_traffic);
  engine.schedule_in(sim::Duration::millis(20), churn);
  engine.schedule_in(sim::Duration::millis(10), state_sampler);

  // The run's post-mortem note: whatever snapshot was published last is
  // what a quarantined run's flight dump shows. The loop must outlive the
  // whole simulation (the engine re-schedules it by reference).
  std::function<void()> note_loop = [&engine, &rsu, ctx, &note_loop] {
    ctx->set_flight_note(rsu.format_snapshot());
    engine.schedule_in(sim::Duration::millis(100), note_loop);
  };
  if (ctx != nullptr) {
    engine.schedule_in(sim::Duration::millis(100), note_loop);
  }

  // --- injection --------------------------------------------------------------
  const sim::SimTime inject_at(kInjectAtUs);
  inject::ErrorInjector injector(engine);
  if (fault_class == "memory_leak") {
    injector.add(inject::make_memory_leak(
        engine, node.kernel(), node.safespeed_task(),
        static_cast<std::uint64_t>(rng.uniform_int(12'000, 24'000)),
        sim::Duration::millis(10), inject_at,
        sim::Duration::millis(rng.uniform_int(2000, 3000))));
  } else if (fault_class == "memory_burst") {
    injector.add(inject::make_allocation_burst(
        node.kernel(), node.safespeed_task(),
        static_cast<std::uint64_t>(rng.uniform_int(96'000, 160'000)), 16,
        inject_at));
  } else if (fault_class == "handle_exhaustion") {
    injector.add(inject::make_handle_exhaustion(
        engine, node.kernel(), node.safespeed_task(),
        static_cast<std::uint32_t>(rng.uniform_int(2, 4)),
        sim::Duration::millis(20), inject_at,
        sim::Duration::millis(rng.uniform_int(2000, 3000))));
  } else if (fault_class == "queue_flood") {
    injector.add(inject::make_queue_flood(
        engine, node.signals(), "lane.samples",
        static_cast<std::uint32_t>(rng.uniform_int(8, 16)),
        sim::Duration::millis(10), inject_at,
        sim::Duration::millis(rng.uniform_int(1500, 2500))));
  } else if (fault_class == "cpu_hog") {
    // The hogged job must still fit its 50 ms period (120 us * ~320 =
    // ~38 ms): an overrunning job loses every other activation and the
    // load collapses into a sawtooth no watermark can hold onto.
    injector.add(inject::make_cpu_hog(
        node.rte(), node.light_control()->control_lights(),
        rng.uniform(300.0, 340.0), inject_at,
        sim::Duration::millis(rng.uniform_int(2000, 3000))));
  } else if (fault_class == "creeping_load") {
    injector.add(inject::make_creeping_load(
        engine, node.rte(), node.light_control()->control_lights(),
        rng.uniform(20.0, 35.0), sim::Duration::millis(100), inject_at,
        sim::Duration::millis(rng.uniform_int(2500, 3500))));
  } else {
    throw std::invalid_argument("unknown resource fault class: " +
                                fault_class);
  }
  injector.arm();
  recorder.mark_injection(inject_at);

  // --- post-run UDS-lite readout of the resource DTC --------------------------
  bus::CanBus diag_can(engine);
  node.attach_diag(diag_can);
  diag::DiagTesterConfig tester_config;
  tester_config.name = "workshop";
  diag::DiagTester tester(engine, diag_can, tester_config);

  bool dtc_found = false;
  bool freeze_frame_ok = false;
  const auto expected_app_raw =
      static_cast<std::uint16_t>(bound_app.value());
  engine.schedule_at(sim::SimTime(kReadoutAtUs), [&] {
    tester.read_dtcs([&](const std::optional<diag::Response>& response) {
      if (!response || !response->positive) return;
      const auto readout = diag::decode_dtc_readout(response->data);
      if (!readout) return;
      bool chase = false;
      for (const auto& record : readout->records) {
        if (record.type == expected_type &&
            record.application == expected_app_raw) {
          dtc_found = true;
          recorder.record("diag_readout", engine.now());
          chase = record.has_freeze_frame;
          break;
        }
      }
      if (!chase) return;
      tester.read_freeze_frame(
          expected_app_raw, expected_type,
          [&](const std::optional<diag::Response>& ff_response) {
            if (!ff_response || !ff_response->positive) return;
            const auto frame = diag::decode_freeze_frame(ff_response->data);
            freeze_frame_ok = frame.has_value() && !frame->signals.empty();
          });
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

  const std::string resource = supervised_resource_of(fault_class);
  const RunnableId resource_id =
      resource == "safespeed.mem"
          ? mem.id
          : (resource == "safespeed.handles"
                 ? handles.id
                 : (resource == "lane.queue" ? queue.id : load.id));
  const bool accurate = recorder.detected("rsu_report") && dtc_found;
  result.rows.push_back(
      {fault_class, resource, std::string(wdg::to_string(expected_type)),
       std::to_string(rsu.reports_for(resource_id)),
       recorder.detected("task_state") ? "1" : "0",
       recorder.detected("treatment") ? "1" : "0", dtc_found ? "1" : "0",
       freeze_frame_ok ? "1" : "0",
       std::to_string(rsu.level_pct(resource_id)), accurate ? "1" : "0"});
  if (!accurate) {
    result.misdetect = "resource fault '" + fault_class +
                       "' not detected end-to-end (rsu_report=" +
                       (recorder.detected("rsu_report") ? "1" : "0") +
                       ", dtc_found=" + (dtc_found ? "1" : "0") + ")";
  }
  if (ctx != nullptr) ctx->set_flight_note(rsu.format_snapshot());
  return result;
}

}  // namespace easis::bench
