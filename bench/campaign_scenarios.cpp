#include "campaign_scenarios.hpp"

#include <functional>
#include <optional>
#include <stdexcept>

#include "bus/can.hpp"
#include "diag/protocol.hpp"
#include "diag/tester.hpp"
#include "inject/campaign.hpp"
#include "inject/diag_faults.hpp"
#include "inject/faults.hpp"
#include "inject/injector.hpp"
#include "inject/network_faults.hpp"
#include "profile/profiler.hpp"
#include "sim/engine.hpp"
#include "util/random.hpp"
#include "validator/central_node.hpp"
#include "validator/network.hpp"
#include "validator/node_supervisor.hpp"
#include "validator/remote_node.hpp"
#include "wdg/com_monitor.hpp"

namespace easis::bench {

namespace {

constexpr std::int64_t kInjectAtUs = 2'000'000;

using MakeInjection = std::function<inject::Injection(
    validator::VehicleNetwork&, util::Rng&, sim::SimTime)>;

MakeInjection injection_factory(const std::string& fault_class) {
  if (fault_class == "frame_corruption") {
    return [](validator::VehicleNetwork& network, util::Rng& rng,
              sim::SimTime at) {
      return inject::make_frame_corruption(network.can_fault_link(),
                                           rng.uniform(0.5, 1.0), at,
                                           sim::Duration::zero());
    };
  }
  if (fault_class == "loss_burst") {
    return [](validator::VehicleNetwork& network, util::Rng& rng,
              sim::SimTime at) {
      return inject::make_loss_burst(
          network.can_fault_link(),
          static_cast<std::uint64_t>(rng.uniform_int(5, 40)), at);
    };
  }
  if (fault_class == "babbling_idiot") {
    return [](validator::VehicleNetwork& network, util::Rng& rng,
              sim::SimTime at) {
      return inject::make_babbling_idiot(
          network.babbler(), at,
          sim::Duration::millis(rng.uniform_int(500, 2000)));
    };
  }
  if (fault_class == "network_partition") {
    return [](validator::VehicleNetwork& network, util::Rng& rng,
              sim::SimTime at) {
      return inject::make_network_partition(
          network.can_fault_link(), at,
          sim::Duration::millis(rng.uniform_int(300, 1500)));
    };
  }
  if (fault_class == "gateway_stall") {
    return [](validator::VehicleNetwork& network, util::Rng& rng,
              sim::SimTime at) {
      return inject::make_gateway_stall(
          network.gateway(), at,
          sim::Duration::millis(rng.uniform_int(300, 1500)));
    };
  }
  throw std::invalid_argument("unknown network fault class: " + fault_class);
}

}  // namespace

const std::vector<std::string>& network_fault_classes() {
  static const std::vector<std::string> kClasses = {
      "frame_corruption", "loss_burst", "babbling_idiot", "network_partition",
      "gateway_stall"};
  return kClasses;
}

const CampaignFamily& network_family() {
  static const CampaignFamily kFamily{
      .program = "exp_network_coverage",
      .title = "Network fault detection coverage",
      .description =
          "randomized network fault injection campaign (5 fault classes x "
          "--runs injections, 4 detectors each)",
      .default_seed = 0xC0FFEE,
      .default_runs = 42,
      .per_run = "4 detectors each",
      .classes = network_fault_classes(),
      .run =
          [](const harness::RunContext& ctx) {
            return run_network_fault(ctx.spec().label, ctx.spec().seed);
          },
      .expected_shape =
          "per-frame faults -> E2E check; silence faults -> timeout "
          "layers; gateway faults invisible on the bus",
      // Each fault class must be caught by the layer designed for it, and
      // the blind spots must stay blind.
      .shape = [](const harness::CampaignReport& report, std::ostream&) {
        const auto& table = report.coverage();
        bool ok = true;
        // Corruption: every damaged frame fails the CRC; the CMU relays it.
        ok &= table.coverage("frame_corruption", "e2e_check") > 0.99;
        ok &= table.coverage("frame_corruption", "cmu_report") > 0.99;
        // A burst leaves a counter gap the next frame exposes -- except
        // when the gap aliases: with a mod-15 alive counter, a burst that
        // swallows exactly 15 command frames lands back on delta == 1 and
        // sails through the sequence check. That blind spot is why the
        // E2E counter is never deployed without timeout monitoring: the
        // CMU must cover the residue.
        ok &= table.coverage("loss_burst", "e2e_check") >= 0.75;
        ok &= table.coverage("loss_burst", "e2e_check") <= 0.99;
        ok &= table.coverage("loss_burst", "cmu_report") > 0.99;
        // Starvation and partition silence the channel and the heartbeats.
        ok &= table.coverage("babbling_idiot", "node_supervisor") > 0.99;
        ok &= table.coverage("babbling_idiot", "cmu_report") > 0.99;
        ok &= table.coverage("network_partition", "signal_qualifier") > 0.99;
        ok &= table.coverage("network_partition", "node_supervisor") > 0.99;
        // The gateway stall never touches the CAN itself: invisible to the
        // bus-level supervisor and the CRC, yet the application's
        // qualifier still degrades.
        ok &= table.coverage("gateway_stall", "node_supervisor") == 0.0;
        ok &= table.coverage("gateway_stall", "e2e_check") == 0.0;
        ok &= table.coverage("gateway_stall", "signal_qualifier") > 0.99;
        return ok;
      }};
  return kFamily;
}

harness::RunResult run_network_fault(const std::string& fault_class,
                                     std::uint64_t seed,
                                     std::int64_t run_until_us) {
  EASIS_PROFILE_SPAN_BEGIN(setup, "run.setup");
  const MakeInjection make = injection_factory(fault_class);

  sim::Engine engine;
  validator::CentralNodeConfig config;
  config.with_fmf = false;
  config.safespeed.max_speed_deadline = sim::Duration::millis(200);
  validator::CentralNode node(engine, config);

  validator::NetworkConfig net_config;
  net_config.e2e_protection = true;
  net_config.fault_seed = seed;
  validator::VehicleNetwork network(engine, node.signals(), net_config);

  wdg::CommunicationMonitoringUnit cmu(node.watchdog());
  const RunnableId channel{1000};
  wdg::ComChannel ch;
  ch.channel = channel;
  ch.task = node.safespeed_task();
  ch.application = node.safespeed().application();
  ch.name = "max_speed";
  ch.timeout = sim::Duration::millis(150);
  cmu.add_channel(ch, engine.now());

  inject::DetectionRecorder recorder;
  recorder.add_detector("e2e_check");
  recorder.add_detector("cmu_report");
  recorder.add_detector("signal_qualifier");
  recorder.add_detector("node_supervisor");

  network.set_max_speed_check_listener(
      [&](bus::E2EStatus status, sim::SimTime now) {
        cmu.on_check_result(channel, status, now);
        if (status != bus::E2EStatus::kOk) recorder.record("e2e_check", now);
      });
  node.watchdog().add_error_listener([&](const wdg::ErrorReport& report) {
    if (report.type == wdg::ErrorType::kCommunication) {
      recorder.record("cmu_report", report.time);
    }
  });

  validator::RemoteNodeConfig remote_config;
  remote_config.name = "dynamics";
  remote_config.heartbeat_can_id = 0x700;
  validator::RemoteNode remote(engine, network.can(), remote_config);
  validator::NodeSupervisor supervisor(engine, network.can());
  supervisor.register_node("dynamics", 0x700, remote_config.heartbeat_period);
  supervisor.set_state_callback(
      [&](NodeId, validator::NodeSupervisor::NodeState state,
          sim::SimTime now) {
        if (state == validator::NodeSupervisor::NodeState::kMissing) {
          recorder.record("node_supervisor", now);
        }
      });

  // Steady traffic: a max-speed command every 50 ms, the CMU's timeout
  // cycle every 50 ms, and a 10 ms sampler of SafeSpeed's qualifier.
  std::function<void()> command_loop = [&] {
    network.command_max_speed(120.0);
    engine.schedule_in(sim::Duration::millis(50), command_loop);
  };
  std::function<void()> cmu_loop = [&] {
    cmu.cycle(engine.now());
    engine.schedule_in(sim::Duration::millis(50), cmu_loop);
  };
  std::function<void()> qualifier_loop = [&] {
    if (node.safespeed().max_speed_qualifier() !=
        rte::SignalQualifier::kValid) {
      recorder.record("signal_qualifier", engine.now());
    }
    engine.schedule_in(sim::Duration::millis(10), qualifier_loop);
  };
  engine.schedule_in(sim::Duration::millis(50), command_loop);
  engine.schedule_in(sim::Duration::millis(50), cmu_loop);
  engine.schedule_in(sim::Duration::millis(10), qualifier_loop);

  util::Rng rng(seed);
  const sim::SimTime inject_at(kInjectAtUs);
  inject::ErrorInjector injector(engine);
  injector.add(make(network, rng, inject_at));
  injector.arm();
  recorder.mark_injection(inject_at);

  node.start();
  network.start();
  remote.start();
  supervisor.start();
  EASIS_PROFILE_SPAN_END(setup);

  {
    EASIS_PROFILE_SPAN("run.simulate");
    engine.run_until(sim::SimTime(run_until_us));
  }

  harness::RunResult result;
  {
    EASIS_PROFILE_SPAN("run.verdict");
    for (const auto& detector : recorder.detectors()) {
      result.coverage.add_result(fault_class, detector,
                                 recorder.detected(detector),
                                 recorder.latency(detector));
    }
  }
  return result;
}

namespace {

/// Everything the t=3s readout collects; the verdict derives from it after
/// the simulation finishes.
struct ReadoutTranscript {
  int timeouts = 0;
  int negatives = 0;
  bool service_not_supported = false;
  std::optional<diag::DtcReadout> count;
  std::optional<diag::DtcReadout> list;
  bool freeze_frame_ok = false;
  int pending = 0;
  bool done = false;
  sim::SimTime completed;
};

void note_response(ReadoutTranscript& transcript,
                   const std::optional<diag::Response>& response) {
  if (!response) {
    ++transcript.timeouts;
    return;
  }
  if (!response->positive) {
    ++transcript.negatives;
    if (response->nrc == diag::Nrc::kServiceNotSupported) {
      transcript.service_not_supported = true;
    }
  }
}

RunnableId diag_target_runnable(validator::CentralNode& node, int target) {
  switch (target % 3) {
    case 0: return node.safespeed().get_sensor_value();
    case 1: return node.safespeed().safe_cc_process();
    default: return node.safespeed().speed_process();
  }
}

wdg::ErrorType expected_error_type(const std::string& fault_class) {
  if (fault_class == "arrival_rate") return wdg::ErrorType::kArrivalRate;
  if (fault_class == "program_flow") return wdg::ErrorType::kProgramFlow;
  return wdg::ErrorType::kAliveness;
}

std::string expected_verdict(const std::string& fault_class) {
  if (fault_class == "diag_request_corruption") {
    return "flagged_negative_response";
  }
  if (fault_class == "diag_response_drop" ||
      fault_class == "diag_reset_blackout") {
    return "readout_timeout";
  }
  return "correct_dtc";
}

}  // namespace

const std::vector<std::string>& diag_fault_classes() {
  static const std::vector<std::string> kClasses = {
      "aliveness",        "arrival_rate",       "program_flow",
      "diag_request_corruption", "diag_response_drop", "diag_reset_blackout"};
  return kClasses;
}

const std::string& diag_readout_csv_header() {
  static const std::string kHeader =
      "fault_class,expected,verdict,dtc_total,dtc_active,freeze_frame,"
      "timeouts,negative_responses,accurate";
  return kHeader;
}

const CampaignFamily& diag_family() {
  static const CampaignFamily kFamily{
      .program = "exp_diag_readout",
      .title = "Diagnostic readout accuracy",
      .description =
          "post-run diagnostic readout campaign (6 fault classes x --runs "
          "injections, verdict per run)",
      .default_seed = 0xD1A6,
      .default_runs = 25,
      .per_run =
          "one full readout each; a cell is the diagnosis accuracy "
          "(readout verdict == expected verdict)",
      .classes = diag_fault_classes(),
      .run =
          [](const harness::RunContext& ctx) {
            return run_diag_readout(ctx.spec().label, ctx.spec().seed);
          },
      .rows_header = diag_readout_csv_header(),
      .rows_are_result = true,
      .expected_shape =
          "computation faults -> correct DTC in the readout; diag-layer "
          "faults -> explicit NRC or tester timeout",
      // Computation faults must read out as their own DTC; the diag-layer
      // attacks must degrade into their explicit flag, never into a
      // silently wrong readout. Both count as an accurate readout.
      .shape = [](const harness::CampaignReport& report, std::ostream&) {
        return every_class_detected(report, diag_fault_classes(),
                                    {"diag_readout"});
      }};
  return kFamily;
}

harness::RunResult run_diag_readout(const std::string& fault_class,
                                    std::uint64_t seed) {
  EASIS_PROFILE_SPAN_BEGIN(setup, "run.setup");
  util::Rng rng(seed);

  sim::Engine engine;
  validator::CentralNodeConfig config;
  config.dtc_capacity = 8;
  config.reboot_delay = sim::Duration::millis(50);
  validator::CentralNode node(engine, config);

  // The diagnostic CAN: the node's UDS-lite server plus a workshop tester.
  bus::CanBus diag_can(engine);
  diag::DiagServer& server = node.attach_diag(diag_can);
  diag::DiagTesterConfig tester_config;
  tester_config.name = "workshop";
  diag::DiagTester tester(engine, diag_can, tester_config);

  // The computation fault under diagnosis. Each class uses the injection
  // that manifests *uniquely* as its error type — a dropped or repeated
  // runnable also breaks the program-flow graph, and whichever monitor
  // fires first owns the DTC, which is misclassification, not diagnosis.
  // The three diag-layer classes attack the readout of an aliveness
  // fault's memory instead, so every run has a fault to read out.
  const int target = static_cast<int>(rng.uniform_int(0, 2));
  const sim::SimTime inject_at(1'000'000);
  const sim::Duration fault_duration =
      sim::Duration::millis(rng.uniform_int(200, 800));

  inject::ErrorInjector injector(engine);
  if (fault_class == "arrival_rate") {
    // Excessive dispatch: the task runs 3-6x too fast; every job still
    // executes its correct sequence, so only the arrival counters trip.
    injector.add(inject::make_period_scale(
        node.kernel(), node.safespeed_alarm(), node.safespeed_period_ticks(),
        1.0 / static_cast<double>(rng.uniform_int(3, 6)), inject_at,
        fault_duration));
  } else if (fault_class == "program_flow") {
    injector.add(inject::make_invalid_branch(
        node.rte(), node.safespeed_task(), diag_target_runnable(node, target),
        diag_target_runnable(node, target + 2), inject_at, fault_duration));
  } else {
    // "aliveness" itself and the companion fault of the diag-layer
    // classes: the runnable keeps executing, only its heartbeat glue is
    // suppressed. The target must be the *last* runnable of the job —
    // the PFC clears its context at the task boundary, so a missing tail
    // indication is invisible to it and the aliveness monitor alone
    // owns the DTC.
    injector.add(inject::make_heartbeat_suppression(
        node.rte(), node.safespeed().speed_process(), inject_at,
        fault_duration));
  }

  constexpr std::int64_t kReadoutAtUs = 3'000'000;
  if (fault_class == "diag_request_corruption") {
    injector.add(inject::make_diag_request_corruption(
        tester, sim::SimTime(kReadoutAtUs - 10'000),
        sim::Duration::millis(rng.uniform_int(300, 600))));
  } else if (fault_class == "diag_response_drop") {
    injector.add(inject::make_diag_response_drop(
        server, sim::SimTime(kReadoutAtUs - 10'000),
        sim::Duration::millis(rng.uniform_int(300, 600))));
  } else if (fault_class == "diag_reset_blackout") {
    injector.add(inject::make_diag_blackout(
        server, sim::SimTime(kReadoutAtUs - 10'000),
        sim::Duration::millis(rng.uniform_int(60, 200))));
  }
  injector.arm();

  // Post-run diagnostic readout: session open, DTC count, DTC list, and
  // the freeze frame of the expected DTC when the list advertises one.
  ReadoutTranscript transcript;
  const wdg::ErrorType expected_type = expected_error_type(fault_class);
  const std::uint16_t expected_app = static_cast<std::uint16_t>(
      node.safespeed().application().value());
  auto finish_one = [&] {
    if (--transcript.pending == 0) {
      transcript.done = true;
      transcript.completed = engine.now();
    }
  };
  engine.schedule_at(sim::SimTime(kReadoutAtUs), [&] {
    transcript.pending = 3;
    tester.tester_present([&](const std::optional<diag::Response>& response) {
      note_response(transcript, response);
      finish_one();
    });
    tester.read_dtc_count(
        [&](const std::optional<diag::Response>& response) {
          note_response(transcript, response);
          if (response && response->positive) {
            transcript.count = diag::decode_dtc_readout(response->data);
          }
          finish_one();
        });
    tester.read_dtcs([&](const std::optional<diag::Response>& response) {
      note_response(transcript, response);
      if (response && response->positive) {
        transcript.list = diag::decode_dtc_readout(response->data);
      }
      // Chase the freeze frame of the expected DTC while the session is
      // still fresh (only when the list advertises one).
      bool chase = false;
      if (transcript.list) {
        for (const auto& record : transcript.list->records) {
          if (record.type == expected_type && record.has_freeze_frame) {
            chase = true;
            break;
          }
        }
      }
      if (chase) {
        ++transcript.pending;
        tester.read_freeze_frame(
            expected_app, expected_type,
            [&](const std::optional<diag::Response>& response) {
              note_response(transcript, response);
              if (response && response->positive) {
                const auto frame = diag::decode_freeze_frame(response->data);
                transcript.freeze_frame_ok =
                    frame.has_value() && !frame->signals.empty();
              }
              finish_one();
            });
      }
      finish_one();
    });
  });

  node.start();
  EASIS_PROFILE_SPAN_END(setup);
  {
    EASIS_PROFILE_SPAN("run.simulate");
    engine.run_until(sim::SimTime(5'000'000));
  }

  // --- verdict ---------------------------------------------------------------
  EASIS_PROFILE_SPAN_BEGIN(verdict, "run.verdict");
  std::string verdict;
  if (!transcript.done) {
    verdict = "readout_incomplete";
  } else if (transcript.timeouts > 0) {
    verdict = "readout_timeout";
  } else if (transcript.service_not_supported) {
    verdict = "flagged_negative_response";
  } else if (transcript.negatives > 0) {
    verdict = "readout_rejected";
  } else if (!transcript.list) {
    verdict = "readout_undecodable";
  } else {
    bool matched = false;
    for (const auto& record : transcript.list->records) {
      if (record.type == expected_type && record.application == expected_app) {
        matched = true;
        break;
      }
    }
    if (matched) {
      verdict = "correct_dtc";
    } else {
      verdict = transcript.list->records.empty() ? "missing_dtc" : "wrong_dtc";
    }
  }

  const std::string expected = expected_verdict(fault_class);
  const bool accurate = verdict == expected;

  harness::RunResult result;
  std::optional<sim::Duration> latency;
  if (transcript.done) {
    latency = transcript.completed - sim::SimTime(kReadoutAtUs);
  }
  result.coverage.add_result(fault_class, "diag_readout", accurate, latency);
  result.rows.push_back(
      {fault_class, expected, verdict,
       transcript.count ? std::to_string(transcript.count->total) : "",
       transcript.count ? std::to_string(transcript.count->active) : "",
       transcript.freeze_frame_ok ? "1" : "0",
       std::to_string(transcript.timeouts),
       std::to_string(transcript.negatives), accurate ? "1" : "0"});
  if (!accurate) {
    result.misdetect = "diag readout verdict '" + verdict + "' != expected '" +
                       expected + "' for " + fault_class;
  }
  return result;
}

}  // namespace easis::bench
