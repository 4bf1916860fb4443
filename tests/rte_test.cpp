// Unit tests for the RTE: component model, mapping, glue code, lifecycle,
// injection controls, signal bus.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "os/kernel.hpp"
#include "rte/ecu.hpp"
#include "rte/rte.hpp"
#include "rte/signal_bus.hpp"
#include "sim/engine.hpp"

namespace easis::rte {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

class RteTest : public ::testing::Test {
 protected:
  Engine engine;
  os::Kernel kernel{engine};
  Rte rte{kernel};

  TaskId make_task(const std::string& name, os::Priority priority = 5) {
    os::TaskConfig config;
    config.name = name;
    config.priority = priority;
    return kernel.create_task(config);
  }

  RunnableId add_runnable(ComponentId component, const std::string& name,
                          Duration cost = Duration::micros(100),
                          std::function<void()> body = nullptr) {
    RunnableSpec spec;
    spec.name = name;
    spec.execution_time = cost;
    spec.body = std::move(body);
    return rte.register_runnable(component, spec);
  }
};

// --- model registration -------------------------------------------------------

TEST_F(RteTest, RegistersHierarchy) {
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId r = add_runnable(comp, "R1");
  EXPECT_EQ(rte.application_of(r), app);
  EXPECT_EQ(rte.component_of(r), comp);
  EXPECT_EQ(rte.runnable_name(r), "R1");
  EXPECT_EQ(rte.application_name(app), "App");
  EXPECT_EQ(rte.runnable_count(), 1u);
}

TEST_F(RteTest, BadComponentRejected) {
  EXPECT_THROW(rte.register_component(ApplicationId{}, "x"),
               std::invalid_argument);
  RunnableSpec spec;
  spec.name = "r";
  EXPECT_THROW(rte.register_runnable(ComponentId(9), spec),
               std::invalid_argument);
}

TEST_F(RteTest, MappingOrderDefinesSequence) {
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A");
  const RunnableId b = add_runnable(comp, "B");
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.map_runnable(b, task);
  const auto& seq = rte.runnables_on_task(task);
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq[0], a);
  EXPECT_EQ(seq[1], b);
  EXPECT_EQ(rte.task_of(a), task);
}

TEST_F(RteTest, DoubleMappingRejected) {
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A");
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  EXPECT_THROW(rte.map_runnable(a, task), std::logic_error);
}

TEST_F(RteTest, TasksOfApplicationDeduplicates) {
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A");
  const RunnableId b = add_runnable(comp, "B");
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.map_runnable(b, task);
  const auto tasks = rte.tasks_of_application(app);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0], task);
}

// --- execution and glue ----------------------------------------------------------

TEST_F(RteTest, BodiesRunInMappedOrder) {
  std::vector<std::string> order;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(10),
                                    [&] { order.push_back("A"); });
  const RunnableId b = add_runnable(comp, "B", Duration::micros(10),
                                    [&] { order.push_back("B"); });
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.map_runnable(b, task);
  rte.finalize();
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(order, (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(rte.executions(a), 1u);
  EXPECT_EQ(rte.executions(b), 1u);
}

TEST_F(RteTest, HeartbeatEmittedPerRunnableCompletion) {
  std::vector<std::pair<RunnableId, TaskId>> beats;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A");
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.add_heartbeat_listener(
      [&](RunnableId r, TaskId t, SimTime) { beats.emplace_back(r, t); });
  rte.finalize();
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  ASSERT_EQ(beats.size(), 1u);
  EXPECT_EQ(beats[0].first, a);
  EXPECT_EQ(beats[0].second, task);
}

TEST_F(RteTest, SuppressedHeartbeatStillRunsBody) {
  int body_runs = 0;
  int beats = 0;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(10),
                                    [&] { ++body_runs; });
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.add_heartbeat_listener([&](RunnableId, TaskId, SimTime) { ++beats; });
  rte.finalize();
  rte.control(a).suppress_heartbeat = true;
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(body_runs, 1);
  EXPECT_EQ(beats, 0);
}

TEST_F(RteTest, SkipBodyStillHeartbeats) {
  int body_runs = 0;
  int beats = 0;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(10),
                                    [&] { ++body_runs; });
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.add_heartbeat_listener([&](RunnableId, TaskId, SimTime) { ++beats; });
  rte.finalize();
  rte.control(a).skip_body = true;
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(body_runs, 0);
  EXPECT_EQ(beats, 1);
}

TEST_F(RteTest, TimeScaleStretchesExecution) {
  SimTime done;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(100),
                                    [&] { done = engine.now(); });
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.finalize();
  rte.control(a).time_scale = 3.0;
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(10'000));
  EXPECT_EQ(done, SimTime(300));
}

TEST_F(RteTest, RepeatZeroDropsRunnable) {
  int a_runs = 0, b_runs = 0;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(10),
                                    [&] { ++a_runs; });
  const RunnableId b = add_runnable(comp, "B", Duration::micros(10),
                                    [&] { ++b_runs; });
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.map_runnable(b, task);
  rte.finalize();
  rte.control(a).repeat = 0;
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(a_runs, 0);
  EXPECT_EQ(b_runs, 1);
}

TEST_F(RteTest, RepeatDuplicatesRunnable) {
  int a_runs = 0;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(10),
                                    [&] { ++a_runs; });
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.finalize();
  rte.control(a).repeat = 3;
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(a_runs, 3);
}

TEST_F(RteTest, SequenceTransformerRewritesJob) {
  std::vector<std::string> order;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(10),
                                    [&] { order.push_back("A"); });
  const RunnableId b = add_runnable(comp, "B", Duration::micros(10),
                                    [&] { order.push_back("B"); });
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.map_runnable(b, task);
  rte.finalize();
  rte.set_sequence_transformer(task, [](std::vector<RunnableId> seq) {
    std::reverse(seq.begin(), seq.end());
    return seq;
  });
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(order, (std::vector<std::string>{"B", "A"}));
  rte.clear_sequence_transformer(task);
  kernel.activate_task(task);
  engine.run_until(SimTime(2000));
  EXPECT_EQ(order, (std::vector<std::string>{"B", "A", "A", "B"}));
}

// --- application lifecycle -----------------------------------------------------------

TEST_F(RteTest, DisabledApplicationDropsOutOfJobs) {
  int runs = 0;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(10),
                                    [&] { ++runs; });
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.finalize();
  kernel.start();
  rte.set_application_enabled(app, false);
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(runs, 0);
  rte.set_application_enabled(app, true);
  kernel.activate_task(task);
  engine.run_until(SimTime(2000));
  EXPECT_EQ(runs, 1);
}

TEST_F(RteTest, SharedTaskSurvivesOtherAppTermination) {
  int a_runs = 0, b_runs = 0;
  const ApplicationId app_a = rte.register_application("A");
  const ApplicationId app_b = rte.register_application("B");
  const ComponentId comp_a = rte.register_component(app_a, "CA");
  const ComponentId comp_b = rte.register_component(app_b, "CB");
  const RunnableId ra = add_runnable(comp_a, "RA", Duration::micros(10),
                                     [&] { ++a_runs; });
  const RunnableId rb = add_runnable(comp_b, "RB", Duration::micros(10),
                                     [&] { ++b_runs; });
  const TaskId task = make_task("Shared");
  rte.map_runnable(ra, task);
  rte.map_runnable(rb, task);
  rte.finalize();
  kernel.start();
  rte.set_application_enabled(app_a, false);
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(a_runs, 0);
  EXPECT_EQ(b_runs, 1);
}

TEST_F(RteTest, RestartCountsAndKillsTasks) {
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(10'000));
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.finalize();
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));  // mid-job
  EXPECT_EQ(kernel.task_state(task), os::TaskState::kRunning);
  rte.restart_application(app);
  EXPECT_EQ(kernel.task_state(task), os::TaskState::kSuspended);
  EXPECT_EQ(rte.restart_count(app), 1u);
}

TEST_F(RteTest, FinalizeTwiceRejected) {
  rte.finalize();
  EXPECT_THROW(rte.finalize(), std::logic_error);
}

// --- signal bus -------------------------------------------------------------------------

TEST(SignalBus, PublishAndRead) {
  SignalBus bus;
  EXPECT_FALSE(bus.read("x").has_value());
  EXPECT_DOUBLE_EQ(bus.read_or("x", 7.0), 7.0);
  bus.publish("x", 1.5, SimTime(10));
  EXPECT_DOUBLE_EQ(*bus.read("x"), 1.5);
  EXPECT_DOUBLE_EQ(bus.read_or("x", 7.0), 1.5);
}

TEST(SignalBus, LastIsBestSemantics) {
  SignalBus bus;
  bus.publish("x", 1.0, SimTime(10));
  bus.publish("x", 2.0, SimTime(20));
  const auto entry = bus.entry("x");
  ASSERT_TRUE(entry.has_value());
  EXPECT_DOUBLE_EQ(entry->value, 2.0);
  EXPECT_EQ(entry->updated_at, SimTime(20));
  EXPECT_EQ(entry->updates, 2u);
}

TEST(SignalBus, ObserversSeeEveryPublish) {
  SignalBus bus;
  int notifications = 0;
  bus.add_observer([&](const std::string&, double, SimTime) {
    ++notifications;
  });
  bus.publish("a", 1.0, SimTime(0));
  bus.publish("b", 2.0, SimTime(0));
  EXPECT_EQ(notifications, 2);
}

TEST(SignalBus, NamesListsSignals) {
  SignalBus bus;
  bus.publish("a", 1.0, SimTime(0));
  bus.publish("b", 2.0, SimTime(0));
  EXPECT_EQ(bus.names().size(), 2u);
  EXPECT_TRUE(bus.has("a"));
  EXPECT_FALSE(bus.has("c"));
}

TEST(SignalBus, BindIsIdempotentAndSharesTheSlotWithTheStringApi) {
  SignalBus bus;
  const SignalHandle x = bus.bind("x");
  EXPECT_TRUE(x.valid());
  EXPECT_EQ(bus.bind(std::string("x")), x);
  EXPECT_EQ(bus.find("x"), x);
  EXPECT_FALSE(bus.find("y").valid());
  EXPECT_EQ(bus.name(x), "x");
  // Binding alone does not create the signal.
  EXPECT_FALSE(bus.has("x"));
  EXPECT_FALSE(bus.read(x).has_value());
  EXPECT_DOUBLE_EQ(bus.read_or(x, 7.0), 7.0);

  bus.publish(x, 1.5, SimTime(10));
  EXPECT_TRUE(bus.has("x"));
  EXPECT_DOUBLE_EQ(bus.read_or("x", 0.0), 1.5);
  bus.publish("x", 2.5, SimTime(20));
  EXPECT_DOUBLE_EQ(*bus.read(x), 2.5);
  const auto entry = bus.entry("x");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->updates, 2u);
  EXPECT_EQ(entry->updated_at, SimTime(20));
  // A name first seen through the string API binds the same way.
  bus.publish("y", 3.0, SimTime(30));
  EXPECT_EQ(bus.bind("y"), bus.find("y"));
  EXPECT_NE(bus.find("y"), x);
  // An invalid handle reads as a signal that never arrived.
  EXPECT_DOUBLE_EQ(bus.read_or(SignalHandle{}, 4.0), 4.0);
  EXPECT_EQ(bus.qualifier(SignalHandle{}, SimTime(0)), SignalQualifier::kValid);
}

TEST(SignalBus, QueueAndReceptionPolicyFollowTheHandle) {
  SignalBus bus;
  bus.configure_queue("q", 2);
  const SignalHandle q = bus.bind("q");
  for (int i = 0; i < 3; ++i) bus.publish(q, i, SimTime(i));
  ASSERT_TRUE(bus.queue_state(q).has_value());
  EXPECT_EQ(bus.queue_state(q)->depth, 2u);
  EXPECT_EQ(bus.queue_state("q")->overflows, 1u);
  EXPECT_EQ(bus.drain(q), 1u);
  EXPECT_EQ(bus.drain("q", 5), 1u);
  EXPECT_EQ(bus.queue_state(q)->drained, 2u);
  bus.clear_queue("q");
  EXPECT_EQ(bus.queue_state(q)->overflows, 0u);
  EXPECT_EQ(bus.queue_state(q)->capacity, 2u);
  EXPECT_FALSE(bus.queue_state(bus.bind("unqueued")).has_value());
  EXPECT_EQ(bus.drain(bus.bind("unqueued")), 0u);

  ReceptionPolicy policy;
  policy.deadline = Duration::millis(10);
  policy.substitute = SubstitutePolicy::kDefault;
  policy.default_value = 9.0;
  bus.set_reception_policy(q, policy, SimTime(0));
  ASSERT_TRUE(bus.reception_policy("q").has_value());
  EXPECT_EQ(bus.reception_policy("q")->deadline, Duration::millis(10));
  bus.publish("q", 5.0, SimTime(Duration::millis(1).as_micros()));
  const SimTime late(Duration::millis(20).as_micros());
  EXPECT_EQ(bus.qualifier(q, late), SignalQualifier::kTimeout);
  EXPECT_EQ(bus.qualifier("q", late), SignalQualifier::kTimeout);
  EXPECT_DOUBLE_EQ(bus.read_qualified(q, late, 0.0).value, 9.0);
  bus.invalidate(q, late);
  EXPECT_EQ(bus.qualifier("q", late), SignalQualifier::kInvalid);
}

TEST(SignalBus, ObserversGetTheBoundName) {
  SignalBus bus;
  SignalHandle speed;
  {
    const std::string temporary = "vehicle.speed_kmh";
    speed = bus.bind(temporary);
  }
  std::vector<std::string> seen;
  const std::string* stored = nullptr;
  bus.add_observer([&](const std::string& name, double, SimTime) {
    seen.push_back(name);
    stored = &name;
  });
  bus.publish(speed, 1.0, SimTime(0));
  bus.publish("vehicle.speed_kmh", 2.0, SimTime(1));
  EXPECT_EQ(seen, (std::vector<std::string>{"vehicle.speed_kmh",
                                            "vehicle.speed_kmh"}));
  EXPECT_EQ(stored, &bus.name(speed));
}

TEST(SignalBus, NamesAreInFirstBindOrder) {
  SignalBus bus;
  const SignalHandle c = bus.bind("c");
  const SignalHandle a = bus.bind("a");
  (void)bus.bind("unpublished");
  bus.publish("b", 1.0, SimTime(0));
  bus.publish(a, 1.0, SimTime(0));
  bus.invalidate(c, SimTime(0));
  EXPECT_EQ(bus.names(), (std::vector<std::string>{"c", "a", "b"}));
}

// --- Ecu --------------------------------------------------------------------------------

TEST(Ecu, BundlesKernelRteSignals) {
  Engine engine;
  Ecu ecu(engine, "node");
  EXPECT_EQ(ecu.name(), "node");
  ecu.start();
  EXPECT_TRUE(ecu.kernel().started());
  ecu.software_reset();
  EXPECT_TRUE(ecu.kernel().started());
  EXPECT_EQ(ecu.kernel().reset_count(), 1u);
}

}  // namespace
}  // namespace easis::rte
