// Hot-path micro-benchmarks (DESIGN.md §15, ROADMAP item 2).
//
// One benchmark per per-run hot-path primitive the campaign profiler
// attributes cost to: the sim::Engine step loop and its heap under N
// periodic events, the kernel's 1 ms counter tick, CAN arbitration over a
// pending backlog, one FlexRay cycle, telemetry event-bus publication, the
// HBM window check, the PFC pair lookup, SignalBus enqueue/drain, DTC
// store insertion and an overflowing fault-memory persist — plus the
// profiler's own span overhead (installed, with and without raw records,
// and uninstalled), so the <5% campaign-overhead budget has a per-site
// number behind it.
//
// google-benchmark binary with a custom main: --json <path> additionally
// writes a single machine-readable snapshot object (ns/op per benchmark),
// the format results/BENCH_hotpath.json accumulates across PRs as a
// labelled array.
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bus/can.hpp"
#include "bus/flexray.hpp"
#include "fmf/dtc.hpp"
#include "fmf/fmf.hpp"
#include "fmf/nvm.hpp"
#include "os/kernel.hpp"
#include "profile/profiler.hpp"
#include "rte/rte.hpp"
#include "rte/signal_bus.hpp"
#include "sim/engine.hpp"
#include "telemetry/event_bus.hpp"
#include "wdg/heartbeat.hpp"
#include "wdg/pfc.hpp"
#include "wdg/watchdog.hpp"

using namespace easis;

namespace {

wdg::RunnableMonitor make_monitor(std::uint32_t id) {
  wdg::RunnableMonitor m;
  m.runnable = RunnableId(id);
  m.task = TaskId(id / 4);
  m.application = ApplicationId(0);
  m.name = "r" + std::to_string(id);
  m.aliveness_cycles = 4;
  m.min_heartbeats = 1;
  m.arrival_cycles = 4;
  m.max_arrivals = 100;
  m.program_flow = false;
  return m;
}

/// sim::Engine step loop: one self-rescheduling event fired per iteration
/// (the dispatch primitive every simulated workload reduces to).
void BM_EngineStepLoop(benchmark::State& state) {
  sim::Engine engine;
  std::function<void()> tick = [&] {
    engine.schedule_in(sim::Duration::micros(1), tick);
  };
  engine.schedule_in(sim::Duration::micros(1), tick);
  for (auto _ : state) {
    // Advances exactly one event period: one pop + dispatch + reschedule.
    engine.run_for(sim::Duration::micros(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineStepLoop);

/// N periodic self-rescheduling events with spread periods, so every fire
/// reorders a heap of N keys, plus one cancel (and re-arm) of another event
/// per 64 fires: the engine under the load a supervised ECU puts on it.
/// BM_EngineStepLoop's one-event heap never pays the reordering.
class EngineQueueLoad {
 public:
  explicit EngineQueueLoad(std::size_t n) : ids_(n) {
    for (std::size_t i = 0; i < n; ++i) arm(i);
  }
  sim::Engine& engine() { return engine_; }

 private:
  sim::Engine engine_;
  std::vector<sim::EventId> ids_;
  std::uint64_t fired_ = 0;

  // Periods 100..1096 us in steps of 37 us (mod 997), spread over the ids.
  static sim::Duration period(std::size_t i) {
    return sim::Duration::micros(100 + static_cast<std::int64_t>(i * 37 % 997));
  }
  void arm(std::size_t i) {
    // [this, i] is 16 trivially copyable bytes: std::function keeps it
    // inline, so the benchmark measures the engine, not the allocator.
    ids_[i] = engine_.schedule_in(period(i), [this, i] { fire(i); });
  }
  void fire(std::size_t i) {
    arm(i);
    if (++fired_ % 64 != 0) return;
    const std::size_t victim = (i + ids_.size() / 2 + 1) % ids_.size();
    if (victim != i && engine_.cancel(ids_[victim])) arm(victim);
  }
};

void BM_EngineQueue(benchmark::State& state) {
  EngineQueueLoad load(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    load.engine().step();
  }
  benchmark::DoNotOptimize(load.engine().events_fired());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineQueue)->Arg(16)->Arg(256);

/// Kernel 1 ms hardware counter with 8 cyclic callback alarms (periods
/// 10..80 ticks, so nine ticks in ten expire none): per iteration one
/// counter-tick event (schedule + fire) and the alarm scan it drives.
void BM_KernelCounterTick(benchmark::State& state) {
  sim::Engine engine;
  os::Kernel kernel(engine);
  const CounterId counter = kernel.create_counter(os::CounterConfig{});
  std::uint64_t expiries = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const AlarmId alarm = kernel.create_alarm(
        counter, os::AlarmActionCallback{[&expiries] { ++expiries; }});
    kernel.set_rel_alarm(alarm, 10 * (i + 1), 10 * (i + 1));
  }
  kernel.start();
  for (auto _ : state) {
    engine.run_for(sim::Duration::millis(1));
  }
  benchmark::DoNotOptimize(expiries);
  state.counters["expiries_per_tick"] =
      static_cast<double>(expiries) / static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelCounterTick);

/// CAN arbitration with a backlog of N pending frames: per iteration one
/// transmit joins the queue and one frame completes, which delivers it and
/// arbitrates the next winner (the babbling_idiot load pattern, where the
/// backlog reaches thousands of frames).
void BM_CanArbitration(benchmark::State& state) {
  sim::Engine engine;
  bus::CanBus can(engine);
  const auto tx = can.attach("tx", nullptr);
  can.attach("rx", [](const bus::Frame&, sim::SimTime) {});
  std::uint32_t n = 0;
  const auto next_frame = [&n] {
    bus::Frame frame;
    frame.id = (n++ * 2654435761u) & 0x7FF;  // scattered 11-bit ids
    frame.payload.assign(8, 0xAB);
    return frame;
  };
  for (std::int64_t i = 0; i <= state.range(0); ++i) {
    can.transmit(tx, next_frame());
  }
  for (auto _ : state) {
    can.transmit(tx, next_frame());
    engine.step();
  }
  benchmark::DoNotOptimize(can.frames_delivered());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CanArbitration)->Arg(16)->Arg(4096);

/// One 5 ms FlexRay cycle of 10 static slots with one owned slot carrying
/// a staged frame (the VehicleNetwork speed-broadcast configuration).
void BM_FlexRayCycle(benchmark::State& state) {
  sim::Engine engine;
  bus::FlexRayBus flexray(engine);
  const auto tx = flexray.attach("tx", nullptr);
  flexray.attach("rx", [](const bus::Frame&, sim::SimTime) {});
  flexray.assign_slot(3, tx);
  flexray.start();
  bus::Frame frame;
  frame.id = 0x10;
  frame.payload.assign(8, 0xAB);
  for (auto _ : state) {
    flexray.send(tx, 3, frame);
    engine.run_for(flexray.config().cycle);
  }
  benchmark::DoNotOptimize(flexray.frames_delivered());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlexRayCycle);

/// Telemetry event-bus publication with one attached sink (the campaign
/// capture configuration: flight recorder + event log behind one lambda).
void BM_EventBusPublish(benchmark::State& state) {
  telemetry::EventBus bus;
  std::uint64_t seen = 0;
  bus.add_sink([&](const telemetry::Event&) { ++seen; });
  telemetry::Event event;
  event.component = telemetry::Component::kHeartbeatUnit;
  event.kind = telemetry::EventKind::kErrorDetected;
  for (auto _ : state) {
    bus.publish(event);
  }
  benchmark::DoNotOptimize(seen);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventBusPublish);

/// HBM supervision-window check: one tick() over N supervised runnables,
/// all healthy (the no-error fast path every monitoring cycle pays).
void BM_HbmWindowCheck(benchmark::State& state) {
  wdg::HeartbeatMonitoringUnit hbm;
  const auto runnables = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < runnables; ++i) {
    hbm.add_runnable(make_monitor(i));
  }
  auto on_error = [](RunnableId, wdg::ErrorType, sim::SimTime) {};
  std::int64_t t = 0;
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < runnables; ++i) hbm.indicate(RunnableId(i));
    hbm.tick(sim::SimTime(t), on_error);
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * runnables);
}
BENCHMARK(BM_HbmWindowCheck)->Arg(4)->Arg(32);

/// PFC (predecessor, current) pair lookup per executed runnable.
void BM_PfcPairLookup(benchmark::State& state) {
  wdg::ProgramFlowCheckingUnit pfc;
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < n; ++i) {
    pfc.add_monitored(RunnableId(i), TaskId(0));
    pfc.add_edge(RunnableId(i), RunnableId((i + 1) % n));
  }
  pfc.add_entry_point(RunnableId(0));
  auto on_error = [](RunnableId, RunnableId, TaskId, sim::SimTime) {};
  std::uint32_t current = 0;
  for (auto _ : state) {
    pfc.on_execution(RunnableId(current), TaskId(0), sim::SimTime(0),
                     on_error);
    current = (current + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PfcPairLookup)->Arg(4)->Arg(32);

/// SignalBus bounded-queue enqueue + drain pair (the RTE delivery path the
/// queue-overflow monitor supervises).
void BM_SignalBusEnqueueDrain(benchmark::State& state) {
  rte::SignalBus bus;
  bus.configure_queue("speed", 64);
  std::int64_t t = 0;
  for (auto _ : state) {
    bus.publish("speed", 100.0, sim::SimTime(t));
    benchmark::DoNotOptimize(bus.drain("speed"));
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SignalBusEnqueueDrain);

/// DTC store insertion into a bounded fault memory: rotating keys force
/// the create + oldest-eviction path (worst case), not the update path.
void BM_DtcStoreInsert(benchmark::State& state) {
  rte::SignalBus signals;
  signals.publish("speed", 120.0, sim::SimTime(0));
  fmf::DtcStore store(signals, {"speed"}, /*max_entries=*/8);
  wdg::ErrorReport report;
  report.runnable = RunnableId(1);
  report.task = TaskId(0);
  report.type = wdg::ErrorType::kAliveness;
  std::uint16_t app = 0;
  std::int64_t t = 0;
  for (auto _ : state) {
    report.application = ApplicationId(app);
    report.time = sim::SimTime(t);
    store.record(report);
    app = (app + 1) % 16;  // 16 keys through 8 slots: every insert evicts
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DtcStoreInsert);

/// FMF persist() into a 1536-byte bank overflowed by 60 DTCs carrying the
/// environment freeze-frame signals (the flash_fill class): one call pays
/// every commit attempt of the eviction ladder until the image fits.
void BM_NvmPersistOverflow(benchmark::State& state) {
  sim::Engine engine;
  os::Kernel kernel(engine);
  rte::Rte rte(kernel);
  wdg::SoftwareWatchdog watchdog{wdg::WatchdogConfig{}};
  rte::SignalBus signals;
  const std::vector<std::string> frame_signals = {
      "vehicle.speed_kmh",       "driver.demand",
      "safespeed.max_speed_kmh", "env.ecu.temp_c",
      "env.ecu.stage",           "env.faultmem.fill.level",
      "env.faultmem.wear.level"};
  for (const std::string& name : frame_signals) {
    signals.publish(name, 42.0, sim::SimTime(0));
  }
  fmf::DtcStore dtcs(signals, frame_signals);
  fmf::FaultManagementFramework fmf(rte, watchdog, [] {});
  fmf::NvmStore nvm(1536);
  fmf.attach_dtc_store(&dtcs);
  fmf.attach_nvm(&nvm);
  wdg::ErrorReport report;
  report.type = wdg::ErrorType::kFilesystem;
  for (std::uint32_t i = 0; i < 60; ++i) {
    report.application = ApplicationId(i);
    report.time = sim::SimTime(1000 * (i + 1));
    dtcs.record(report);
  }
  for (auto _ : state) {
    fmf.persist();
  }
  benchmark::DoNotOptimize(nvm.commits());
  state.counters["evictions_per_persist"] =
      static_cast<double>(fmf.nvm_evictions()) /
      static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NvmPersistOverflow);

/// Profiler span cost with a profiler installed and no raw records (what
/// an instrumented site pays inside a campaign profiled without
/// --trace-out): two clock reads and the tree walk.
void BM_ProfileSpanInstalled(benchmark::State& state) {
  profile::Profiler profiler(profile::Profiler::Config{.ring_capacity = 0});
  profiler.begin_run();
  profile::ProfileScope scope(profiler);
  for (auto _ : state) {
    EASIS_PROFILE_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileSpanInstalled);

/// The same with raw records kept for the trace export (--trace-out): one
/// more ring write per span.
void BM_ProfileSpanRecorded(benchmark::State& state) {
  profile::Profiler profiler;
  profiler.begin_run();
  profile::ProfileScope scope(profiler);
  for (auto _ : state) {
    EASIS_PROFILE_SPAN("bench.span.recorded");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileSpanRecorded);

/// Profiler span cost with no profiler installed: the thread-local load
/// plus branch every instrumented site pays in an unprofiled campaign.
void BM_ProfileSpanUninstalled(benchmark::State& state) {
  for (auto _ : state) {
    EASIS_PROFILE_SPAN("bench.span.off");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileSpanUninstalled);

/// Profiler counter cost with a profiler installed.
void BM_ProfileCountInstalled(benchmark::State& state) {
  profile::Profiler profiler;
  profiler.begin_run();
  profile::ProfileScope scope(profiler);
  for (auto _ : state) {
    EASIS_PROFILE_COUNT("bench.count", 1);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileCountInstalled);

/// Console reporter that additionally captures (name, ns/op) per run for
/// the JSON snapshot.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Sample {
    std::string name;
    double ns_per_op;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      samples.push_back(Sample{run.benchmark_name(),
                               run.GetAdjustedRealTime()});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Sample> samples;
};

}  // namespace

int main(int argc, char** argv) {
  // Pre-scan for --json <path> / --json=<path>; everything else goes to
  // google-benchmark's own flag parser.
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }

  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    json << "{\n"
         << "  \"bench\": \"hotpath\",\n"
         << "  \"unit\": \"ns_per_op\",\n"
         << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < reporter.samples.size(); ++i) {
      const auto& s = reporter.samples[i];
      json << "    {\"name\": \"" << s.name
           << "\", \"ns_per_op\": " << s.ns_per_op << "}"
           << (i + 1 < reporter.samples.size() ? "," : "") << '\n';
    }
    json << "  ]\n}\n";
    std::cout << "snapshot written to " << json_path << '\n';
  }
  return 0;
}
