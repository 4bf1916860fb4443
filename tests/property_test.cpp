// Property-style tests: invariants under randomized (seeded) workloads and
// parameter sweeps, using parameterized gtest suites.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <type_traits>
#include <vector>

#include "apps/monitor_hypothesis.hpp"
#include "inject/faults.hpp"
#include "inject/injector.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"
#include "util/random.hpp"
#include "rte/rte.hpp"
#include "validator/central_node.hpp"
#include "wdg/config_check.hpp"
#include "wdg/pfc.hpp"
#include "wdg/service.hpp"
#include "wdg/watchdog.hpp"

namespace easis {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

// --- engine determinism across seeds ---------------------------------------------

class EngineDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineDeterminism, SameSeedSameTrace) {
  auto run = [](std::uint64_t seed) {
    util::Rng rng(seed);
    Engine engine;
    std::vector<std::int64_t> trace;
    std::function<void(int)> spawn = [&](int depth) {
      trace.push_back(engine.now().as_micros());
      if (depth <= 0) return;
      const int children = static_cast<int>(rng.uniform_int(1, 3));
      for (int i = 0; i < children; ++i) {
        engine.schedule_in(Duration::micros(rng.uniform_int(1, 50)),
                           [&spawn, depth] { spawn(depth - 1); });
      }
    };
    engine.schedule_at(SimTime(0), [&spawn] { spawn(5); });
    engine.run_all();
    return trace;
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDeterminism,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

// --- kernel schedulability property --------------------------------------------------

// gtest names each case of these suites by dumping the parameter's bytes,
// so the parameter structs carry no padding: uninitialised padding bytes
// would make the test names differ from one build or run to the next.
struct TaskSetParam {
  std::int64_t tasks;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<TaskSetParam>);

class KernelTaskSet : public ::testing::TestWithParam<TaskSetParam> {};

// With total utilization well below 1 and distinct priorities, every
// periodic activation completes before the next one (no lost activations),
// and the consumed time equals jobs * cost exactly.
TEST_P(KernelTaskSet, AllJobsCompleteUnderLowUtilization) {
  const auto [task_count, seed] = GetParam();
  util::Rng rng(seed);
  Engine engine;
  os::Kernel kernel(engine);
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});

  struct Entry {
    TaskId task;
    AlarmId alarm;
    std::uint64_t period_ticks;
    Duration cost;
  };
  std::vector<Entry> entries;
  for (int i = 0; i < task_count; ++i) {
    os::TaskConfig config;
    config.name = "t" + std::to_string(i);
    config.priority = i;  // distinct priorities
    // Short backlogs are legal (queued activations); lost ones are not.
    config.max_pending_activations = 3;
    const TaskId id = kernel.create_task(config);
    const auto period_ticks =
        static_cast<std::uint64_t>(rng.uniform_int(5, 40));
    // Keep each task's utilization under ~4%.
    const Duration cost =
        Duration::micros(rng.uniform_int(
            50, static_cast<std::int64_t>(period_ticks) * 40));
    kernel.set_job_factory(id, [cost](os::Job& job) {
      os::Segment s;
      s.cost = cost;
      job.push_back(std::move(s));
    });
    const AlarmId alarm =
        kernel.create_alarm(counter, os::AlarmActionActivateTask{id});
    entries.push_back({id, alarm, period_ticks, cost});
  }
  kernel.start();
  for (const auto& e : entries) {
    kernel.set_rel_alarm(e.alarm, e.period_ticks, e.period_ticks);
  }

  int limit_errors = 0;
  kernel.set_error_hook([&](os::Status s, std::string_view) {
    if (s == os::Status::kLimit) ++limit_errors;
  });

  const std::int64_t horizon_ms = 2000;
  engine.run_until(SimTime(horizon_ms * 1000));

  EXPECT_EQ(limit_errors, 0) << "activations were lost";
  for (const auto& e : entries) {
    const auto expected_jobs = static_cast<std::uint64_t>(
        horizon_ms / static_cast<std::int64_t>(e.period_ticks));
    // Allow a short backlog (queued activations) to still be in flight.
    EXPECT_GE(kernel.jobs_completed(e.task) + 4, expected_jobs);
    EXPECT_LE(kernel.jobs_completed(e.task), expected_jobs);
    const auto consumed = kernel.total_consumed(e.task).as_micros();
    const auto full_jobs = kernel.jobs_completed(e.task);
    EXPECT_GE(consumed,
              static_cast<std::int64_t>(full_jobs) * e.cost.as_micros());
  }
}

INSTANTIATE_TEST_SUITE_P(
    TaskSets, KernelTaskSet,
    ::testing::Values(TaskSetParam{2, 11}, TaskSetParam{4, 22},
                      TaskSetParam{6, 33}, TaskSetParam{8, 44},
                      TaskSetParam{10, 55}));

// --- PFC: no false positives on random valid walks -------------------------------------

class PfcRandomWalk : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PfcRandomWalk, ValidWalksNeverFlagged) {
  util::Rng rng(GetParam());
  wdg::ProgramFlowCheckingUnit pfc;
  const int nodes = 8;
  std::map<int, std::vector<int>> successors;
  for (int i = 0; i < nodes; ++i) {
    pfc.add_monitored(RunnableId(static_cast<std::uint32_t>(i)), TaskId(0));
  }
  // Random graph: every node gets 1..3 successors.
  for (int i = 0; i < nodes; ++i) {
    const int fanout = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < fanout; ++k) {
      const int succ = static_cast<int>(rng.uniform_int(0, nodes - 1));
      successors[i].push_back(succ);
      pfc.add_edge(RunnableId(static_cast<std::uint32_t>(i)),
                   RunnableId(static_cast<std::uint32_t>(succ)));
    }
  }
  const int entry = static_cast<int>(rng.uniform_int(0, nodes - 1));
  pfc.add_entry_point(RunnableId(static_cast<std::uint32_t>(entry)));

  int errors = 0;
  auto on_error = [&](RunnableId, RunnableId, TaskId, SimTime) { ++errors; };

  // 50 jobs of random valid walks.
  for (int job = 0; job < 50; ++job) {
    int current = entry;
    pfc.on_execution(RunnableId(static_cast<std::uint32_t>(current)),
                     TaskId(0), SimTime(0), on_error);
    const int steps = static_cast<int>(rng.uniform_int(1, 20));
    for (int s = 0; s < steps; ++s) {
      const auto& succ = successors[current];
      current = succ[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(succ.size()) - 1))];
      pfc.on_execution(RunnableId(static_cast<std::uint32_t>(current)),
                       TaskId(0), SimTime(0), on_error);
    }
    pfc.task_boundary(TaskId(0));
  }
  EXPECT_EQ(errors, 0);
}

TEST_P(PfcRandomWalk, CorruptedStepAlwaysFlagged) {
  util::Rng rng(GetParam());
  wdg::ProgramFlowCheckingUnit pfc;
  // Chain 0 -> 1 -> 2 -> 3 -> 4; corruption jumps backwards or skips.
  const int nodes = 5;
  for (int i = 0; i < nodes; ++i) {
    pfc.add_monitored(RunnableId(static_cast<std::uint32_t>(i)), TaskId(0));
    if (i > 0) {
      pfc.add_edge(RunnableId(static_cast<std::uint32_t>(i - 1)),
                   RunnableId(static_cast<std::uint32_t>(i)));
    }
  }
  pfc.add_entry_point(RunnableId(0));

  for (int trial = 0; trial < 20; ++trial) {
    int errors = 0;
    auto on_error = [&](RunnableId, RunnableId, TaskId, SimTime) { ++errors; };
    const int corrupt_at = static_cast<int>(rng.uniform_int(1, nodes - 1));
    int wrong = static_cast<int>(rng.uniform_int(0, nodes - 1));
    if (wrong == corrupt_at) wrong = (wrong + 2) % nodes;  // ensure invalid
    for (int i = 0; i < nodes; ++i) {
      const int executed = (i == corrupt_at) ? wrong : i;
      pfc.on_execution(RunnableId(static_cast<std::uint32_t>(executed)),
                       TaskId(0), SimTime(0), on_error);
    }
    pfc.task_boundary(TaskId(0));
    EXPECT_GE(errors, 1) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PfcRandomWalk,
                         ::testing::Values(3u, 17u, 71u, 301u));

// --- full-node determinism ----------------------------------------------------------------

TEST(NodeDeterminism, IdenticalRunsProduceIdenticalState) {
  auto run = [] {
    Engine engine;
    validator::CentralNode node(engine);
    node.start();
    node.signals().publish("driver.demand", 0.7, engine.now());
    engine.run_until(SimTime(5'000'000));
    return std::make_tuple(
        node.vehicle().speed_kmh(),
        node.rte().executions(node.safespeed().get_sensor_value()),
        node.watchdog().cycles_run(), engine.events_fired());
  };
  EXPECT_EQ(run(), run());
}

// --- watchdog detection-threshold sweep: injected frequency scaling -----------------------

struct SliderParam {
  double factor;
  bool expect_aliveness;
  bool expect_arrival;
  std::array<std::uint8_t, 6> zero_tail{};  // no padding, see TaskSetParam
};
static_assert(sizeof(SliderParam) == sizeof(double) + 8);

class SliderSweep : public ::testing::TestWithParam<SliderParam> {};

// The ControlDesk "slider" scales the SafeSpeed activation period. The
// fault hypothesis tolerates one missing/extra activation per window, so
// moderate scaling stays silent while strong scaling is detected.
TEST_P(SliderSweep, DetectionMatchesHypothesis) {
  const SliderParam param = GetParam();
  Engine engine;
  validator::CentralNodeConfig config;
  config.with_fmf = false;
  validator::CentralNode node(engine, config);
  std::vector<wdg::ErrorReport> errors;
  node.watchdog().add_error_listener(
      [&](const wdg::ErrorReport& r) { errors.push_back(r); });
  node.start();

  inject::ErrorInjector injector(engine);
  injector.add(inject::make_period_scale(
      node.kernel(), node.safespeed_alarm(), node.safespeed_period_ticks(),
      param.factor, SimTime(500'000), Duration::zero()));
  injector.arm();
  engine.run_until(SimTime(4'000'000));

  int aliveness = 0, arrival = 0;
  for (const auto& e : errors) {
    if (e.type == wdg::ErrorType::kAliveness) ++aliveness;
    if (e.type == wdg::ErrorType::kArrivalRate) ++arrival;
  }
  EXPECT_EQ(aliveness > 0, param.expect_aliveness)
      << "factor " << param.factor;
  EXPECT_EQ(arrival > 0, param.expect_arrival) << "factor " << param.factor;
}

INSTANTIATE_TEST_SUITE_P(
    Factors, SliderSweep,
    ::testing::Values(SliderParam{1.0, false, false},
                      SliderParam{4.0, true, false},
                      SliderParam{8.0, true, false},
                      SliderParam{0.25, false, true}));

// --- watchdog soundness & completeness on random platforms -----------------------

struct PlatformParam {
  std::int64_t tasks;  // 64-bit: no padding, see TaskSetParam
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<PlatformParam>);

class RandomPlatform : public ::testing::TestWithParam<PlatformParam> {
 protected:
  struct Built {
    std::unique_ptr<os::Kernel> kernel;
    std::unique_ptr<rte::Rte> rte;
    std::unique_ptr<wdg::SoftwareWatchdog> watchdog;
    std::unique_ptr<wdg::WatchdogService> service;
    std::vector<RunnableId> runnables;
    std::vector<sim::Duration> periods;
  };

  /// Builds a random healthy platform: `tasks` periodic tasks with 1..3
  /// runnables each, monitors derived from the actual periods.
  Built build(Engine& engine, util::Rng& rng, std::int64_t tasks) {
    Built b;
    b.kernel = std::make_unique<os::Kernel>(engine);
    b.rte = std::make_unique<rte::Rte>(*b.kernel);
    wdg::WatchdogConfig config;
    config.check_period = Duration::millis(10);
    b.watchdog = std::make_unique<wdg::SoftwareWatchdog>(config);

    const CounterId counter = b.kernel->create_counter(
        {.name = "sys", .tick = Duration::millis(1)});
    const ApplicationId app = b.rte->register_application("Random");
    const ComponentId comp = b.rte->register_component(app, "C");

    std::vector<std::pair<AlarmId, std::uint64_t>> alarms;
    for (int t = 0; t < tasks; ++t) {
      os::TaskConfig tc;
      tc.name = "t" + std::to_string(t);
      tc.priority = t;
      const TaskId task = b.kernel->create_task(tc);
      const auto period_ms =
          static_cast<std::uint64_t>(rng.uniform_int(1, 10)) * 10;
      const sim::Duration period = Duration::millis(
          static_cast<std::int64_t>(period_ms));
      const int runnable_count = static_cast<int>(rng.uniform_int(1, 3));
      for (int r = 0; r < runnable_count; ++r) {
        rte::RunnableSpec spec;
        spec.name = "t" + std::to_string(t) + "_r" + std::to_string(r);
        spec.execution_time =
            Duration::micros(rng.uniform_int(20, 500));
        const RunnableId id = b.rte->register_runnable(comp, spec);
        b.rte->map_runnable(id, task);
        b.watchdog->add_runnable(apps::derive_monitor(
            id, task, app, spec.name, period, config.check_period,
            /*program_flow=*/false));
        b.runnables.push_back(id);
        b.periods.push_back(period);
      }
      const AlarmId alarm = b.kernel->create_alarm(
          counter, os::AlarmActionActivateTask{task});
      alarms.emplace_back(alarm, period_ms);
    }

    b.service = std::make_unique<wdg::WatchdogService>(
        *b.kernel, *b.rte, *b.watchdog, counter);
    b.rte->finalize();
    b.kernel->start();
    b.service->arm();
    for (const auto& [alarm, period_ms] : alarms) {
      b.kernel->set_rel_alarm(alarm, period_ms, period_ms);
    }
    return b;
  }
};

// Soundness: a healthy random platform with hypotheses derived from the
// real periods produces zero watchdog errors (no false positives).
TEST_P(RandomPlatform, HealthyPlatformsNeverFlagged) {
  const auto [tasks, seed] = GetParam();
  Engine engine;
  util::Rng rng(seed);
  Built b = build(engine, rng, tasks);
  int errors = 0;
  b.watchdog->add_error_listener(
      [&](const wdg::ErrorReport&) { ++errors; });
  engine.run_until(SimTime(5'000'000));
  EXPECT_EQ(errors, 0) << "false positives on a healthy platform";
  EXPECT_GT(b.watchdog->cycles_run(), 400u);
  // The derived configuration also passes the static checker.
  std::size_t idx = 0;
  const auto findings = wdg::ConfigChecker::check(
      *b.watchdog, [&](RunnableId id) {
        for (std::size_t i = 0; i < b.runnables.size(); ++i) {
          if (b.runnables[i] == id) return b.periods[i];
        }
        (void)idx;
        return Duration::zero();
      });
  EXPECT_TRUE(wdg::ConfigChecker::acceptable(findings));
}

// Completeness: dropping a random runnable is always detected, within the
// hypothesis window bound (aliveness_cycles x check period x 2 for phase).
TEST_P(RandomPlatform, RandomDropAlwaysDetectedWithinBound) {
  const auto [tasks, seed] = GetParam();
  Engine engine;
  util::Rng rng(seed ^ 0xD00D);
  Built b = build(engine, rng, tasks);

  const std::size_t victim_index = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(b.runnables.size()) - 1));
  const RunnableId victim = b.runnables[victim_index];

  std::optional<SimTime> detected;
  b.watchdog->add_error_listener([&](const wdg::ErrorReport& report) {
    if (report.runnable == victim &&
        report.type == wdg::ErrorType::kAliveness && !detected) {
      detected = report.time;
    }
  });

  const SimTime inject_at(2'000'000 +
                          rng.uniform_int(0, 100) * 1'000);
  engine.schedule_at(inject_at, [&] {
    b.rte->control(victim).repeat = 0;  // drop from all future jobs
  });
  engine.run_until(SimTime(10'000'000));

  ASSERT_TRUE(detected.has_value()) << "drop was never detected";
  const auto window_us =
      static_cast<std::int64_t>(
          b.watchdog->heartbeat_unit().config(victim).aliveness_cycles) *
      10'000;
  EXPECT_LE((*detected - inject_at).as_micros(), 2 * window_us + 20'000)
      << "detection later than the hypothesis bound";
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, RandomPlatform,
    ::testing::Values(PlatformParam{1, 101}, PlatformParam{3, 202},
                      PlatformParam{5, 303}, PlatformParam{8, 404},
                      PlatformParam{12, 505}));

}  // namespace
}  // namespace easis
