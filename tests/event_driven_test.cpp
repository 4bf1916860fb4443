// Tests for event-driven execution: RTE event-server tasks, the
// CrashDetection application (ISR -> event -> extended task), sporadic
// monitoring, and the schedule tracer.
#include <gtest/gtest.h>

#include <sstream>

#include "apps/crash_detection.hpp"
#include "os/kernel.hpp"
#include "os/schedule_trace.hpp"
#include "rte/rte.hpp"
#include "rte/signal_bus.hpp"
#include "sim/engine.hpp"
#include "wdg/watchdog.hpp"

namespace easis {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

// --- RTE event-driven task execution ----------------------------------------

class EventServerTest : public ::testing::Test {
 protected:
  Engine engine;
  os::Kernel kernel{engine};
  rte::Rte rte{kernel};
  TaskId task;
  RunnableId worker;
  int runs = 0;

  void SetUp() override {
    const ApplicationId app = rte.register_application("App");
    const ComponentId comp = rte.register_component(app, "C");
    rte::RunnableSpec spec;
    spec.name = "worker";
    spec.execution_time = Duration::micros(100);
    spec.body = [this] { ++runs; };
    worker = rte.register_runnable(comp, spec);
    os::TaskConfig config;
    config.name = "server";
    config.priority = 5;
    config.extended = true;
    task = kernel.create_task(config);
    rte.map_runnable(worker, task);
    rte.configure_task_execution(
        task, rte::Rte::TaskExecutionConfig{0x1, /*chain_self=*/true});
    rte.finalize();
    kernel.start();
    kernel.activate_task(task);
  }
};

TEST_F(EventServerTest, WaitsUntilEventArrives) {
  engine.run_until(SimTime(10'000));
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(kernel.task_state(task), os::TaskState::kWaiting);
}

TEST_F(EventServerTest, RunsOncePerEvent) {
  for (int i = 0; i < 3; ++i) {
    engine.schedule_at(SimTime(1'000 + i * 1'000),
                       [this] { kernel.set_event(task, 0x1); });
  }
  engine.run_until(SimTime(10'000));
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(kernel.task_state(task), os::TaskState::kWaiting);
}

TEST_F(EventServerTest, ChainedServerSurvivesManyEpisodes) {
  for (int i = 0; i < 100; ++i) {
    engine.schedule_at(SimTime(1'000 + i * 500),
                       [this] { kernel.set_event(task, 0x1); });
  }
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(runs, 100);
}

// --- CrashDetection application -------------------------------------------------

class CrashTest : public ::testing::Test {
 protected:
  Engine engine;
  os::Kernel kernel{engine};
  rte::Rte rte{kernel};
  rte::SignalBus signals;
  wdg::SoftwareWatchdog watchdog{[] {
    wdg::WatchdogConfig c;
    c.check_period = Duration::millis(10);
    return c;
  }()};
  std::unique_ptr<apps::CrashDetection> app;
  std::vector<wdg::ErrorReport> errors;

  void SetUp() override {
    app = std::make_unique<apps::CrashDetection>(rte, signals, 70);
    app->configure_watchdog(watchdog);
    watchdog.add_error_listener(
        [this](const wdg::ErrorReport& r) { errors.push_back(r); });
    rte.add_heartbeat_listener(
        [this](RunnableId r, TaskId t, SimTime now) {
          watchdog.indicate_aliveness(r, t, now);
        });
    boundary_ = std::make_unique<Boundary>(watchdog);
    kernel.add_observer(boundary_.get());
    rte.finalize();
    kernel.start();
    app->start();
  }

  struct Boundary : os::KernelObserver {
    explicit Boundary(wdg::SoftwareWatchdog& wd) : watchdog(wd) {}
    wdg::SoftwareWatchdog& watchdog;
    void on_task_terminated(TaskId task, sim::SimTime) override {
      watchdog.notify_task_terminated(task);
    }
  };
  std::unique_ptr<Boundary> boundary_;

  void tick_watchdog(int cycles) {
    for (int i = 0; i < cycles; ++i) {
      watchdog.main_function(SimTime(i * 10'000));
    }
  }
};

TEST_F(CrashTest, NoCrashNoActivity) {
  engine.run_until(SimTime(1'000'000));
  EXPECT_EQ(app->crashes_detected(), 0u);
  EXPECT_EQ(app->notifications_sent(), 0u);
  tick_watchdog(20);
  EXPECT_TRUE(errors.empty());  // sporadic runnables: silence is healthy
}

TEST_F(CrashTest, CrashDetectedAndNotified) {
  signals.publish("sensor.accel_g", 6.5, engine.now());
  engine.schedule_at(SimTime(1'000), [this] { app->trigger_sensor(); });
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(app->crashes_detected(), 1u);
  EXPECT_EQ(app->notifications_sent(), 1u);
  EXPECT_DOUBLE_EQ(signals.read_or("telematics.crash_notify", 0.0), 1.0);
  EXPECT_DOUBLE_EQ(signals.read_or("crash.detected", 0.0), 1.0);
}

TEST_F(CrashTest, BelowThresholdNoNotification) {
  signals.publish("sensor.accel_g", 2.0, engine.now());
  engine.schedule_at(SimTime(1'000), [this] { app->trigger_sensor(); });
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(app->crashes_detected(), 0u);
  EXPECT_EQ(app->notifications_sent(), 0u);
}

TEST_F(CrashTest, ServerHandlesRepeatedCrashes) {
  signals.publish("sensor.accel_g", 8.0, engine.now());
  for (int i = 0; i < 2; ++i) {
    engine.schedule_at(SimTime(1'000 + i * 50'000),
                       [this] { app->trigger_sensor(); });
  }
  engine.run_until(SimTime(500'000));
  EXPECT_EQ(app->notifications_sent(), 2u);
}

TEST_F(CrashTest, HandlerStormRaisesArrivalRateError) {
  // max_arrivals = 2 per 10-cycle window; fire 10 times rapidly.
  signals.publish("sensor.accel_g", 8.0, engine.now());
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(SimTime(1'000 + i * 2'000),
                       [this] { app->trigger_sensor(); });
  }
  engine.run_until(SimTime(200'000));
  tick_watchdog(10);
  bool arrival_error = false;
  for (const auto& e : errors) {
    if (e.type == wdg::ErrorType::kArrivalRate) arrival_error = true;
    EXPECT_NE(e.type, wdg::ErrorType::kAliveness);  // aliveness disabled
  }
  EXPECT_TRUE(arrival_error);
}

TEST_F(CrashTest, FlowCheckedWithinEpisode) {
  // A correct episode is detect -> notify; valid sequence => no flow error.
  signals.publish("sensor.accel_g", 8.0, engine.now());
  engine.schedule_at(SimTime(1'000), [this] { app->trigger_sensor(); });
  engine.run_until(SimTime(100'000));
  tick_watchdog(2);
  for (const auto& e : errors) {
    EXPECT_NE(e.type, wdg::ErrorType::kProgramFlow);
  }
}

// --- schedule tracer -----------------------------------------------------------

class TracerTest : public ::testing::Test {
 protected:
  Engine engine;
  os::Kernel kernel{engine};

  TaskId make_task(const std::string& name, os::Priority priority,
                   Duration cost) {
    os::TaskConfig config;
    config.name = name;
    config.priority = priority;
    const TaskId id = kernel.create_task(config);
    kernel.set_job_factory(id, [cost](os::Job& job) {
      os::Segment s;
      s.cost = cost;
      job.push_back(std::move(s));
    });
    return id;
  }
};

TEST_F(TracerTest, RecordsBusySlices) {
  os::ScheduleTracer tracer(kernel);
  const TaskId t = make_task("t", 5, Duration::millis(2));
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(100'000));
  ASSERT_EQ(tracer.slices().size(), 1u);
  EXPECT_EQ(tracer.slices()[0].task, t);
  EXPECT_EQ(tracer.busy_time(t), Duration::millis(2));
}

TEST_F(TracerTest, PreemptionSplitsSlices) {
  os::ScheduleTracer tracer(kernel);
  const TaskId lo = make_task("lo", 1, Duration::millis(4));
  const TaskId hi = make_task("hi", 9, Duration::millis(1));
  kernel.start();
  kernel.activate_task(lo);
  engine.schedule_at(SimTime(1'000), [&] { kernel.activate_task(hi); });
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(tracer.busy_time(lo), Duration::millis(4));
  EXPECT_EQ(tracer.busy_time(hi), Duration::millis(1));
  int lo_slices = 0;
  for (const auto& s : tracer.slices()) {
    if (s.task == lo) ++lo_slices;
  }
  EXPECT_EQ(lo_slices, 2);  // split by the preemption
}

TEST_F(TracerTest, UtilizationComputed) {
  os::ScheduleTracer tracer(kernel);
  const TaskId t = make_task("t", 5, Duration::millis(2));
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(10'000));
  // 2 ms busy in a 10 ms window.
  EXPECT_NEAR(tracer.utilization(t, SimTime(0), SimTime(10'000)), 0.2, 1e-9);
  EXPECT_NEAR(tracer.total_utilization(SimTime(0), SimTime(10'000)), 0.2,
              1e-9);
}

TEST_F(TracerTest, GanttRendersRows) {
  os::ScheduleTracer tracer(kernel);
  const TaskId a = make_task("alpha", 5, Duration::millis(1));
  const TaskId b = make_task("beta", 6, Duration::millis(1));
  kernel.start();
  kernel.activate_task(a);
  kernel.activate_task(b);
  engine.run_until(SimTime(10'000));
  std::ostringstream out;
  tracer.render_gantt(out, SimTime(0), SimTime(10'000), 40);
  const std::string text = out.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("beta"), std::string::npos);
  EXPECT_NE(text.find('#'), std::string::npos);
}

TEST_F(TracerTest, ClearEmptiesTrace) {
  os::ScheduleTracer tracer(kernel);
  const TaskId t = make_task("t", 5, Duration::millis(1));
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(10'000));
  tracer.clear();
  EXPECT_TRUE(tracer.slices().empty());
  EXPECT_EQ(tracer.busy_time(t), Duration::zero());
}

}  // namespace
}  // namespace easis
