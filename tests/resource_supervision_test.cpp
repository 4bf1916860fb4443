// Unit tests for the resource-supervision family: kernel resource
// accounting (budgets, handle pool, reclaim), bounded signal queues, the
// Resource Supervision Unit's three detection rules, the virtual-runnable
// path through the TSI, and resource DTCs in a full bounded fault memory
// (eviction ordering + NVM round-trip).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fmf/dtc.hpp"
#include "fmf/nvm.hpp"
#include "os/kernel.hpp"
#include "rte/signal_bus.hpp"
#include "sim/engine.hpp"
#include "wdg/resource_monitor.hpp"
#include "wdg/watchdog.hpp"

namespace easis::wdg {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

// --- kernel resource accounting ----------------------------------------------

class ResourceAccountingTest : public ::testing::Test {
 protected:
  Engine engine;
  os::Kernel kernel{engine};

  TaskId make_task(const std::string& name) {
    os::TaskConfig config;
    config.name = name;
    config.priority = 1;
    return kernel.create_task(config);
  }
};

TEST_F(ResourceAccountingTest, AllocRespectsBudgetAndCountsDenials) {
  const TaskId t = make_task("t");
  kernel.set_task_resource_budget(t, {/*memory_bytes=*/1'000, /*handles=*/0});
  EXPECT_TRUE(kernel.task_alloc(t, 600));
  // Would exceed the budget: denied, counted, usage untouched.
  EXPECT_FALSE(kernel.task_alloc(t, 500));
  const os::TaskResourceUsage& usage = kernel.task_resource_usage(t);
  EXPECT_EQ(usage.memory_bytes, 600u);
  EXPECT_EQ(usage.denied_allocations, 1u);
  EXPECT_TRUE(kernel.task_alloc(t, 400));  // exactly to the budget
  EXPECT_EQ(usage.memory_bytes, 1'000u);
  kernel.task_free(t, 300);
  EXPECT_EQ(usage.memory_bytes, 700u);
  EXPECT_EQ(usage.memory_peak, 1'000u);
}

TEST_F(ResourceAccountingTest, HandlePoolIsSharedAndTaskBudgeted) {
  const TaskId t1 = make_task("t1");
  const TaskId t2 = make_task("t2");
  kernel.set_handle_pool_capacity(4);
  kernel.set_task_resource_budget(t1, {/*memory_bytes=*/0, /*handles=*/3});
  EXPECT_TRUE(kernel.task_acquire_handles(t1, 3));
  // t1's own budget is exhausted even though the pool has one left.
  EXPECT_FALSE(kernel.task_acquire_handles(t1, 1));
  EXPECT_EQ(kernel.task_resource_usage(t1).denied_handles, 1u);
  // t2 is unbudgeted but the global pool only has one handle left.
  EXPECT_FALSE(kernel.task_acquire_handles(t2, 2));
  EXPECT_EQ(kernel.task_resource_usage(t2).denied_handles, 1u);
  EXPECT_TRUE(kernel.task_acquire_handles(t2, 1));
  EXPECT_EQ(kernel.handles_in_use(), 4u);
  kernel.task_release_handles(t1, 2);
  EXPECT_EQ(kernel.handles_in_use(), 2u);
  EXPECT_EQ(kernel.task_resource_usage(t1).handles_peak, 3u);
}

TEST_F(ResourceAccountingTest, ReclaimReturnsEverythingToThePool) {
  const TaskId t = make_task("t");
  kernel.set_handle_pool_capacity(4);
  kernel.set_task_resource_budget(t, {/*memory_bytes=*/100, /*handles=*/0});
  ASSERT_TRUE(kernel.task_alloc(t, 100));
  ASSERT_TRUE(kernel.task_acquire_handles(t, 4));
  EXPECT_FALSE(kernel.task_alloc(t, 1));  // leave a denial behind
  kernel.reclaim_task_resources(t);
  const os::TaskResourceUsage& usage = kernel.task_resource_usage(t);
  EXPECT_EQ(usage.memory_bytes, 0u);
  EXPECT_EQ(usage.handles, 0u);
  EXPECT_EQ(usage.denied_allocations, 0u);
  EXPECT_EQ(kernel.handles_in_use(), 0u);
  // The pool is whole again: a fresh acquisition succeeds.
  EXPECT_TRUE(kernel.task_acquire_handles(t, 4));
}

// --- bounded signal queues ---------------------------------------------------

TEST(SignalQueueTest, BoundedQueueTracksDepthOverflowAndDrain) {
  rte::SignalBus bus;
  bus.configure_queue("lane.samples", 2);
  bus.publish("lane.samples", 1.0, SimTime(100));
  bus.publish("lane.samples", 2.0, SimTime(200));
  bus.publish("lane.samples", 3.0, SimTime(300));  // full: lost update
  auto q = bus.queue_state("lane.samples");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->depth, 2u);
  EXPECT_EQ(q->peak_depth, 2u);
  EXPECT_EQ(q->enqueued, 2u);
  EXPECT_EQ(q->overflows, 1u);
  // Last-is-best value semantics are unaffected by the overflow.
  ASSERT_TRUE(bus.read("lane.samples").has_value());
  EXPECT_DOUBLE_EQ(*bus.read("lane.samples"), 3.0);
  EXPECT_EQ(bus.drain("lane.samples", 5), 2u);
  q = bus.queue_state("lane.samples");
  EXPECT_EQ(q->depth, 0u);
  EXPECT_EQ(q->drained, 2u);
  bus.publish("lane.samples", 4.0, SimTime(400));
  bus.clear_queue("lane.samples");
  q = bus.queue_state("lane.samples");
  EXPECT_EQ(q->depth, 0u);
  EXPECT_EQ(q->overflows, 0u);
  EXPECT_EQ(q->peak_depth, 0u);
}

// --- Resource Supervision Unit ----------------------------------------------

WatchdogConfig rsu_config() {
  WatchdogConfig config;
  config.check_period = Duration::millis(10);
  config.resource_threshold = 3;
  return config;
}

class RsuTest : public ::testing::Test {
 protected:
  Engine engine;
  os::Kernel kernel{engine};
  rte::SignalBus bus;
  SoftwareWatchdog wd{rsu_config()};
  ResourceSupervisionUnit rsu{wd, kernel, bus};
  std::vector<ErrorReport> errors;
  TaskId task{};

  void SetUp() override {
    os::TaskConfig config;
    config.name = "worker";
    config.priority = 1;
    task = kernel.create_task(config);
    wd.add_error_listener(
        [this](const ErrorReport& report) { errors.push_back(report); });
  }

  SupervisedResource resource(ResourceClass cls, ResourceLimits limits,
                              std::string queue_signal = "") {
    SupervisedResource r;
    r.id = RunnableId(100);
    r.task = task;
    r.application = ApplicationId(0);
    r.name = "worker.res";
    r.resource_class = cls;
    r.limits = limits;
    r.queue_signal = std::move(queue_signal);
    return r;
  }

  void cycles(int n, int start = 0) {
    for (int i = 0; i < n; ++i) {
      rsu.cycle(SimTime((start + i) * 10'000));
    }
  }
};

TEST_F(RsuTest, WatermarkReportsAfterTransgressionWindow) {
  kernel.set_task_resource_budget(task, {/*memory_bytes=*/1'000, 0});
  ASSERT_TRUE(kernel.task_alloc(task, 600));
  rsu.add_resource(resource(ResourceClass::kMemory,
                            {/*watermark=*/0.5, /*window_cycles=*/3,
                             /*leak_rate_per_s=*/0.0}));
  cycles(2);
  EXPECT_TRUE(errors.empty());  // inside the transgression window
  cycles(1, 2);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, ErrorType::kMemoryBudget);
  EXPECT_EQ(errors[0].task, task);
  // Sustained transgression re-reports every cycle (TSI threshold food).
  cycles(2, 3);
  EXPECT_EQ(errors.size(), 3u);
  EXPECT_EQ(rsu.reports_for(RunnableId(100)), 3u);
  EXPECT_EQ(rsu.level_pct(RunnableId(100)), 60u);
  // Dropping below the watermark re-arms the window.
  kernel.task_free(task, 200);
  cycles(2, 5);
  EXPECT_EQ(errors.size(), 3u);
}

TEST_F(RsuTest, ExhaustionReportsImmediatelyOncePerCycle) {
  kernel.set_task_resource_budget(task, {/*memory_bytes=*/100, 0});
  ASSERT_TRUE(kernel.task_alloc(task, 100));
  rsu.add_resource(resource(ResourceClass::kMemory,
                            {/*watermark=*/0.5, /*window_cycles=*/1,
                             /*leak_rate_per_s=*/0.0}));
  EXPECT_FALSE(kernel.task_alloc(task, 50));
  EXPECT_FALSE(kernel.task_alloc(task, 50));
  cycles(1);
  // Two denials, one cycle: one exhaustion report, and the watermark rule
  // (also tripped at 100%) must not double-report the same resource.
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, ErrorType::kMemoryBudget);
  EXPECT_NE(errors[0].detail.find("exhaustion"), std::string::npos);
}

TEST_F(RsuTest, QueueOverflowIsExhaustion) {
  bus.configure_queue("lane.samples", 2);
  rsu.add_resource(resource(ResourceClass::kQueue,
                            {/*watermark=*/0.0, /*window_cycles=*/1,
                             /*leak_rate_per_s=*/0.0},
                            "lane.samples"));
  bus.publish("lane.samples", 1.0, SimTime(100));
  bus.publish("lane.samples", 2.0, SimTime(200));
  bus.publish("lane.samples", 3.0, SimTime(300));
  cycles(1);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, ErrorType::kQueueOverflow);
}

TEST_F(RsuTest, LeakRateCatchesSlowGrowthBelowWatermark) {
  kernel.set_task_resource_budget(task, {/*memory_bytes=*/1'000'000, 0});
  rsu.add_resource(resource(ResourceClass::kMemory,
                            {/*watermark=*/0.9, /*window_cycles=*/3,
                             /*leak_rate_per_s=*/0.05,
                             /*leak_window_cycles=*/4}));
  // 2 KB per 10 ms cycle is 0.2 %/cycle — far below the watermark, but
  // 0.6 % growth over the 30 ms window is a 0.2/s rate, above 0.05/s.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(kernel.task_alloc(task, 2'000));
    rsu.cycle(SimTime(i * 10'000));
  }
  ASSERT_FALSE(errors.empty());
  EXPECT_EQ(errors[0].type, ErrorType::kMemoryBudget);
  EXPECT_NE(errors[0].detail.find("leak"), std::string::npos);
}

TEST_F(RsuTest, LevelExactlyAtWatermarkCountsAsTransgression) {
  // Boundary of the watermark comparison: the rule is `level >=
  // watermark`, so sitting exactly on the watermark transgresses.
  kernel.set_task_resource_budget(task, {/*memory_bytes=*/1'000, 0});
  ASSERT_TRUE(kernel.task_alloc(task, 500));
  rsu.add_resource(resource(ResourceClass::kMemory,
                            {/*watermark=*/0.5, /*window_cycles=*/3,
                             /*leak_rate_per_s=*/0.0}));
  cycles(2);
  EXPECT_TRUE(errors.empty());
  // The window edge: the report lands exactly on the window_cycles-th
  // consecutive cycle at the watermark, not one later.
  cycles(1, 2);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, ErrorType::kMemoryBudget);
  // One byte below the watermark is the other side of the boundary.
  kernel.task_free(task, 1);
  cycles(5, 3);
  EXPECT_EQ(errors.size(), 1u);
}

TEST_F(RsuTest, LeakWindowOfOneSampleIsInert) {
  // A slope needs two points: leak_window_cycles=1 spans zero seconds, so
  // the rule must disengage entirely instead of dividing by zero or
  // reporting on a single sample.
  kernel.set_task_resource_budget(task, {/*memory_bytes=*/1'000'000, 0});
  rsu.add_resource(resource(ResourceClass::kMemory,
                            {/*watermark=*/0.0, /*window_cycles=*/1,
                             /*leak_rate_per_s=*/0.5,
                             /*leak_window_cycles=*/1}));
  // Aggressive growth, far above the configured rate: still no report.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(kernel.task_alloc(task, 50'000));
    rsu.cycle(SimTime(i * 10'000));
  }
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(rsu.reports_for(RunnableId(100)), 0u);
}

TEST_F(RsuTest, LeakRateFiresOnTheMinimalTwoSampleWindow) {
  // The smallest window the slope rule supports: two samples, one check
  // period apart ((leak_window_cycles - 1) * check_period seconds).
  kernel.set_task_resource_budget(task, {/*memory_bytes=*/1'000'000, 0});
  rsu.add_resource(resource(ResourceClass::kMemory,
                            {/*watermark=*/0.9, /*window_cycles=*/3,
                             /*leak_rate_per_s=*/0.05,
                             /*leak_window_cycles=*/2}));
  ASSERT_TRUE(kernel.task_alloc(task, 2'000));
  rsu.cycle(SimTime(0));
  EXPECT_TRUE(errors.empty());  // one sample is not a slope yet
  // 0.2 % growth in one 10 ms period is a 0.2/s rate, above 0.05/s: the
  // report lands exactly when the second sample completes the window.
  ASSERT_TRUE(kernel.task_alloc(task, 2'000));
  rsu.cycle(SimTime(10'000));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, ErrorType::kMemoryBudget);
  EXPECT_NE(errors[0].detail.find("leak"), std::string::npos);
}

TEST_F(RsuTest, VirtualRunnableRollsTaskFaultyThroughTsi) {
  kernel.set_task_resource_budget(task, {/*memory_bytes=*/1'000, 0});
  ASSERT_TRUE(kernel.task_alloc(task, 900));
  rsu.add_resource(resource(ResourceClass::kMemory,
                            {/*watermark=*/0.5, /*window_cycles=*/1,
                             /*leak_rate_per_s=*/0.0}));
  std::vector<std::pair<TaskId, Health>> transitions;
  wd.add_task_state_listener([&](TaskId t, Health h, SimTime) {
    transitions.emplace_back(t, h);
  });
  cycles(2);
  EXPECT_TRUE(transitions.empty());  // threshold 3 not yet crossed
  cycles(1, 2);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].first, task);
  EXPECT_EQ(transitions[0].second, Health::kFaulty);
}

TEST_F(RsuTest, CpuLoadEwmaTracksKernelBusyTime) {
  kernel.set_job_factory(task, [](os::Job& job) {
    os::Segment segment;
    segment.cost = Duration::millis(5);
    job.push_back(std::move(segment));
  });
  rsu.set_load_smoothing(1.0);  // no smoothing: read the raw cycle share
  rsu.add_resource(resource(ResourceClass::kCpuLoad,
                            {/*watermark=*/0.4, /*window_cycles=*/1,
                             /*leak_rate_per_s=*/0.0}));
  rsu.cycle(SimTime(0));  // baseline sample
  ASSERT_EQ(kernel.activate_task(task), os::Status::kOk);
  engine.run_until(SimTime(10'000));
  rsu.cycle(SimTime(10'000));
  // 5 ms busy in a 10 ms cycle: 50 % load, above the 40 % watermark.
  EXPECT_DOUBLE_EQ(rsu.load_average(), 0.5);
  EXPECT_EQ(rsu.level_pct(RunnableId(100)), 50u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, ErrorType::kCpuOverload);
}

// --- resource DTCs in a full bounded fault memory ---------------------------

ApplicationId app(std::uint32_t id) { return ApplicationId(id); }

ErrorReport report_for(std::uint32_t application, ErrorType type,
                       SimTime at) {
  ErrorReport report;
  report.application = app(application);
  report.type = type;
  report.time = at;
  return report;
}

TEST(ResourceDtcTest, ResourceDtcEvictsOldestAndFreezesResourceSnapshot) {
  rte::SignalBus signals;
  signals.publish("res.worker.mem.level", 87.0, SimTime(500));
  fmf::DtcStore store(signals, {"res.worker.mem.level"}, 2);
  store.record(report_for(1, ErrorType::kAliveness, SimTime(1'000)));
  store.record(report_for(2, ErrorType::kDeadline, SimTime(2'000)));
  ASSERT_EQ(store.count(), 2u);
  // The store is full when the resource DTC arrives: the entry with the
  // oldest last occurrence is evicted, and the newcomer's freeze frame
  // carries the resource level that was on the bus at detection time.
  store.record(report_for(1, ErrorType::kMemoryBudget, SimTime(3'000)));
  EXPECT_EQ(store.count(), 2u);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_EQ(store.entry({app(1), ErrorType::kAliveness}), nullptr);
  const fmf::DtcEntry* entry =
      store.entry({app(1), ErrorType::kMemoryBudget});
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(entry->freeze_frame.has_value());
  ASSERT_EQ(entry->freeze_frame->signals.size(), 1u);
  EXPECT_EQ(entry->freeze_frame->signals[0].first, "res.worker.mem.level");
  EXPECT_DOUBLE_EQ(entry->freeze_frame->signals[0].second, 87.0);
}

TEST(ResourceDtcTest, ResourceDtcSurvivesNvmRoundTripInFullStore) {
  rte::SignalBus signals;
  signals.publish("res.worker.mem.level", 92.0, SimTime(500));
  fmf::DtcStore store(signals, {"res.worker.mem.level"}, 2);
  store.record(report_for(1, ErrorType::kHandleExhaustion, SimTime(1'000)));
  store.record(report_for(2, ErrorType::kCpuOverload, SimTime(2'000)));

  fmf::NvmImage image;
  for (const fmf::DtcEntry& entry : store.entries()) {
    image.dtcs.push_back(fmf::PersistedDtc{entry.key, entry.occurrences,
                                           entry.first_seen, entry.last_seen,
                                           entry.active, entry.freeze_frame});
  }
  fmf::NvmStore nvm;
  ASSERT_TRUE(nvm.commit(image));

  // Reboot: the resource error types (u8-serialized beyond the original
  // six) and their frames must come back intact into a full store.
  const fmf::NvmStore::LoadResult loaded = nvm.load();
  ASSERT_TRUE(loaded.image.has_value());
  fmf::DtcStore reborn(signals, {"res.worker.mem.level"}, 2);
  std::vector<fmf::DtcEntry> restored;
  for (const fmf::PersistedDtc& dtc : loaded.image->dtcs) {
    restored.push_back(fmf::DtcEntry{dtc.key, dtc.occurrences, dtc.first_seen,
                                     dtc.last_seen, dtc.active,
                                     dtc.freeze_frame});
  }
  reborn.restore(restored);
  ASSERT_EQ(reborn.count(), 2u);
  const fmf::DtcEntry* handles =
      reborn.entry({app(1), ErrorType::kHandleExhaustion});
  ASSERT_NE(handles, nullptr);
  ASSERT_TRUE(handles->freeze_frame.has_value());
  EXPECT_DOUBLE_EQ(handles->freeze_frame->signals[0].second, 92.0);

  // A fresh resource DTC after the reboot ages against the restored
  // timestamps: the restored handle-exhaustion entry (oldest last
  // occurrence) is the eviction victim.
  reborn.record(report_for(3, ErrorType::kQueueOverflow, SimTime(10'000)));
  EXPECT_EQ(reborn.count(), 2u);
  EXPECT_EQ(reborn.evictions(), 1u);
  EXPECT_EQ(reborn.entry({app(1), ErrorType::kHandleExhaustion}), nullptr);
  EXPECT_NE(reborn.entry({app(2), ErrorType::kCpuOverload}), nullptr);
  EXPECT_NE(reborn.entry({app(3), ErrorType::kQueueOverflow}), nullptr);
}

}  // namespace
}  // namespace easis::wdg
