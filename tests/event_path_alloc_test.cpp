// The per-event path allocates nothing once its tables have grown: engine
// schedule/fire/cancel, the kernel's counter ticks with their alarm scan,
// kernel observer notifications, RTE task activations with runnables
// that publish and read signals through handles, signal-bus access, and
// the TSI and PFC supervision cycles.
//
// This binary replaces the global operator new with a counting one, so it
// holds only these tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "os/kernel.hpp"
#include "rte/rte.hpp"
#include "rte/signal_bus.hpp"
#include "sim/engine.hpp"
#include "wdg/pfc.hpp"
#include "wdg/tsi.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace easis {
namespace {

using sim::Duration;
using sim::SimTime;

/// Allocations made by `fn`.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

void* volatile g_escape = nullptr;  // keeps the probe allocation observable

TEST(EventPathAllocations, CountingHookSeesAllocations) {
  EXPECT_EQ(allocations_during([] {
              g_escape = ::operator new(16);
              ::operator delete(g_escape);
            }),
            1u);
}

/// Periodic self-rescheduling events; every 16th fire cancels and re-arms
/// another one.
class PeriodicLoad {
 public:
  explicit PeriodicLoad(std::size_t n) : ids_(n) {
    for (std::size_t i = 0; i < n; ++i) arm(i);
  }
  sim::Engine engine;
  std::uint64_t fired = 0;

 private:
  std::vector<sim::EventId> ids_;

  void arm(std::size_t i) {
    // [this, i] fits std::function's inline buffer: the lambda itself
    // allocates nothing, so any allocation would be the engine's.
    ids_[i] = engine.schedule_in(Duration::micros(50 + 13 * i),
                                 [this, i] { fire(i); });
  }
  void fire(std::size_t i) {
    arm(i);
    if (++fired % 16 != 0) return;
    const std::size_t victim = (i + 31) % ids_.size();
    if (engine.cancel(ids_[victim])) arm(victim);
  }
};

TEST(EventPathAllocations, EngineStepsAndCancelsAllocateNothingOnceWarm) {
  PeriodicLoad load(64);
  load.engine.run_for(Duration::millis(100));  // grows heap and slot table
  const std::uint64_t fired_before = load.fired;
  EXPECT_EQ(allocations_during(
                [&] { load.engine.run_for(Duration::seconds(1)); }),
            0u);
  EXPECT_GT(load.fired - fired_before, 10'000u);
}

class KernelAllocations : public ::testing::Test {
 protected:
  sim::Engine engine;
  os::Kernel kernel{engine};
  CounterId counter;
  std::vector<AlarmId> alarms;
  std::uint64_t expiries = 0;

  void SetUp() override {
    counter = kernel.create_counter(
        {.name = "sys", .tick = Duration::millis(1)});
    for (std::uint64_t i = 0; i < 8; ++i) {
      alarms.push_back(kernel.create_alarm(
          counter, os::AlarmActionCallback{[this] { ++expiries; }}));
      kernel.set_rel_alarm(alarms.back(), 10 * (i + 1), 10 * (i + 1));
    }
    kernel.start();
    engine.run_for(Duration::millis(100));
  }
};

TEST_F(KernelAllocations, CounterTicksAllocateNothing) {
  const std::uint64_t before = expiries;
  EXPECT_EQ(allocations_during([&] { engine.run_for(Duration::seconds(1)); }),
            0u);
  EXPECT_GT(expiries - before, 200u);
}

TEST_F(KernelAllocations, NotificationsAllocateNothing) {
  struct Counting : os::KernelObserver {
    int errors = 0;
    void on_service_error(os::Status, std::string_view,
                          sim::SimTime) override {
      ++errors;
    }
  } first, second, third;
  kernel.add_observer(&first);
  kernel.add_observer(&second);
  kernel.add_observer(&third);
  const AlarmId unarmed =
      kernel.create_alarm(counter, os::AlarmActionCallback{});
  // Cancelling an unarmed alarm fails, and the failure notifies every
  // observer through on_service_error.
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 1000; ++i) kernel.cancel_alarm(unarmed);
            }),
            0u);
  EXPECT_EQ(first.errors, 1000);
  EXPECT_EQ(third.errors, 1000);
  kernel.remove_observer(&first);
  kernel.remove_observer(&second);
  kernel.remove_observer(&third);
}

/// One application of three runnables on a 5 ms task; the runnables pass
/// a value along through handles, the way the bundled applications do.
class RteActivations : public ::testing::Test {
 protected:
  sim::Engine engine;
  os::Kernel kernel{engine};
  rte::Rte rte{kernel};
  rte::SignalBus bus;
  rte::SignalHandle input = bus.bind("sensor.input");
  rte::SignalHandle filtered = bus.bind("app.filtered");
  rte::SignalHandle output = bus.bind("actuator.output");
  std::uint64_t heartbeats = 0;

  void SetUp() override {
    const ApplicationId app = rte.register_application("App");
    const ComponentId component = rte.register_component(app, "Chain");
    const TaskId task = kernel.create_task({.name = "Task", .priority = 5});
    const auto add = [&](std::string name, std::function<void()> body) {
      rte::RunnableSpec spec;
      spec.name = std::move(name);
      spec.execution_time = Duration::micros(200);
      spec.body = std::move(body);
      rte.map_runnable(rte.register_runnable(component, std::move(spec)),
                       task);
    };
    add("Acquire", [this] {
      bus.publish(filtered, bus.read_or(input, 0.0) * 0.5, kernel.now());
    });
    add("Control", [this] {
      bus.publish(output, bus.read_or(filtered, 0.0) + 1.0, kernel.now());
    });
    add("Drive", [this] { (void)bus.read_or(output, 0.0); });
    rte.add_heartbeat_listener(
        [this](RunnableId, TaskId, SimTime) { ++heartbeats; });
    rte.finalize();

    const CounterId counter = kernel.create_counter(
        {.name = "sys", .tick = Duration::millis(1)});
    const AlarmId alarm =
        kernel.create_alarm(counter, os::AlarmActionActivateTask{task});
    kernel.set_rel_alarm(alarm, 5, 5);
    bus.publish(input, 4.0, SimTime(0));
    kernel.start();
    engine.run_for(Duration::millis(100));  // grows the job buffers
  }
};

TEST_F(RteActivations, TaskActivationsAllocateNothingOnceWarm) {
  const std::uint64_t before = heartbeats;
  EXPECT_EQ(allocations_during([&] { engine.run_for(Duration::seconds(1)); }),
            0u);
  EXPECT_EQ(heartbeats - before, 3u * 200u);  // 200 jobs of 3 runnables
  EXPECT_DOUBLE_EQ(*bus.read(output), 3.0);   // 4.0 * 0.5 + 1.0
}

TEST(SignalBusAllocations, HandleAndStringViewAccessAllocateNothing) {
  rte::SignalBus bus;
  // Longer than the small-string buffer: a temporary std::string of it
  // would allocate.
  const rte::SignalHandle speed = bus.bind("safespeed.speed_measured");
  bus.publish(speed, 0.0, SimTime(0));
  double sum = 0.0;
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 1000; ++i) {
                bus.publish(speed, i, SimTime(i));
                sum += bus.read_or(speed, 0.0);
                bus.publish("safespeed.speed_measured", i, SimTime(i));
                sum += bus.read_or("safespeed.speed_measured", 0.0);
              }
            }),
            0u);
  EXPECT_DOUBLE_EQ(sum, 999.0 * 1000.0);  // twice the sum of 0..999
  EXPECT_EQ(bus.entry("safespeed.speed_measured")->updates, 2001u);
}

TEST(SupervisionAllocations, TsiReportAndDeriveAllocateNothingOnceWarm) {
  wdg::TaskStateIndicationUnit::Thresholds thresholds;
  thresholds.by_type.fill(3);
  wdg::TaskStateIndicationUnit tsi(thresholds, /*ecu_faulty_task_limit=*/2);
  for (std::uint32_t i = 0; i < 8; ++i) {
    tsi.add_runnable(RunnableId(i), TaskId(i % 4), ApplicationId(i % 2));
  }
  std::uint64_t transitions = 0;
  tsi.set_task_state_callback(
      [&](TaskId, wdg::Health, SimTime) { ++transitions; });
  tsi.set_application_state_callback(
      [&](ApplicationId, wdg::Health, SimTime) { ++transitions; });
  tsi.set_ecu_state_callback([&](wdg::Health, SimTime) { ++transitions; });
  // One cycle: a runnable reaches its threshold, then its task is cleared.
  const auto cycle = [&](std::uint32_t i) {
    const RunnableId runnable(i % 8);
    for (int k = 0; k < 3; ++k) {
      tsi.report_error(runnable, wdg::ErrorType::kAliveness, SimTime(i));
    }
    tsi.clear_task(TaskId(i % 4), SimTime(i));
  };
  cycle(0);  // grows the derive scratch
  transitions = 0;
  EXPECT_EQ(allocations_during([&] {
              for (std::uint32_t i = 1; i <= 100; ++i) cycle(i);
            }),
            0u);
  // Each cycle: task and application faulty, then ok again.
  EXPECT_EQ(transitions, 100u * 4u);
}

TEST(SupervisionAllocations, PfcAcrossTaskBoundariesAllocatesNothing) {
  wdg::ProgramFlowCheckingUnit pfc;
  const TaskId task(0);
  for (std::uint32_t i = 0; i < 4; ++i) pfc.add_monitored(RunnableId(i), task);
  for (std::uint32_t i = 0; i + 1 < 4; ++i) {
    pfc.add_edge(RunnableId(i), RunnableId(i + 1));
  }
  pfc.add_entry_point(RunnableId(0));
  std::uint64_t errors = 0;
  const wdg::ProgramFlowCheckingUnit::ErrorCallback on_error =
      [&](RunnableId, RunnableId, TaskId, SimTime) { ++errors; };
  const auto job = [&] {
    for (std::uint32_t i = 0; i < 4; ++i) {
      pfc.on_execution(RunnableId(i), task, SimTime(0), on_error);
    }
    pfc.task_boundary(task);
  };
  job();  // the task's flow context is created once
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 1000; ++i) job();
            }),
            0u);
  EXPECT_EQ(errors, 0u);
}

}  // namespace
}  // namespace easis
