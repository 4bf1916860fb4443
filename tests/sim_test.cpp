// Unit tests for the simulation kernel: time types, DES engine, vehicle
// and lane environment models.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/lane.hpp"
#include "sim/time.hpp"
#include "sim/vehicle.hpp"

namespace easis::sim {
namespace {

// --- time ----------------------------------------------------------------

TEST(Duration, Factories) {
  EXPECT_EQ(Duration::millis(3).as_micros(), 3000);
  EXPECT_EQ(Duration::seconds(2).as_micros(), 2'000'000);
  EXPECT_DOUBLE_EQ(Duration::millis(1500).as_seconds(), 1.5);
}

TEST(Duration, Arithmetic) {
  const Duration a = Duration::millis(10);
  const Duration b = Duration::millis(4);
  EXPECT_EQ((a + b).as_micros(), 14000);
  EXPECT_EQ((a - b).as_micros(), 6000);
  EXPECT_EQ((a * 3).as_micros(), 30000);
  EXPECT_EQ((a / 2).as_micros(), 5000);
}

TEST(Duration, Comparison) {
  EXPECT_LT(Duration::millis(1), Duration::millis(2));
  EXPECT_EQ(Duration::millis(1), Duration::micros(1000));
}

TEST(SimTime, PlusMinusDuration) {
  const SimTime t0(1000);
  const SimTime t1 = t0 + Duration::micros(500);
  EXPECT_EQ(t1.as_micros(), 1500);
  EXPECT_EQ((t1 - t0).as_micros(), 500);
  EXPECT_EQ((t1 - Duration::micros(500)), t0);
}

// --- engine ---------------------------------------------------------------

TEST(Engine, FiresInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(SimTime(30), [&] { order.push_back(3); });
  engine.schedule_at(SimTime(10), [&] { order.push_back(1); });
  engine.schedule_at(SimTime(20), [&] { order.push_back(2); });
  engine.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), SimTime(30));
}

TEST(Engine, SameTimeOrderedByPriorityThenInsertion) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(SimTime(10), [&] { order.push_back(2); },
                     EventPriority::kDefault);
  engine.schedule_at(SimTime(10), [&] { order.push_back(1); },
                     EventPriority::kKernel);
  engine.schedule_at(SimTime(10), [&] { order.push_back(3); },
                     EventPriority::kDefault);
  engine.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ScheduleInIsRelative) {
  Engine engine;
  SimTime fired;
  engine.schedule_at(SimTime(100), [&] {
    engine.schedule_in(Duration::micros(50), [&] { fired = engine.now(); });
  });
  engine.run_all();
  EXPECT_EQ(fired, SimTime(150));
}

TEST(Engine, RejectsPastEvents) {
  Engine engine;
  engine.schedule_at(SimTime(100), [] {});
  engine.run_all();
  EXPECT_THROW(engine.schedule_at(SimTime(50), [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_in(Duration::micros(-1), [] {}),
               std::invalid_argument);
}

TEST(Engine, CancelPreventsFiring) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(SimTime(10), [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  engine.run_all();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelUnknownIdFails) {
  Engine engine;
  EXPECT_FALSE(engine.cancel(0));
  EXPECT_FALSE(engine.cancel(999));
}

TEST(Engine, CancelAfterFiringFailsAndKeepsCountExact) {
  Engine engine;
  const EventId id = engine.schedule_at(SimTime(10), [] {});
  engine.run_all();
  EXPECT_FALSE(engine.cancel(id));
  EXPECT_EQ(engine.pending_events(), 0u);
  engine.schedule_at(SimTime(20), [] {});
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.run_all();
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.events_fired(), 2u);
}

TEST(Engine, CancelTwiceFailsTheSecondTime) {
  Engine engine;
  const EventId id = engine.schedule_at(SimTime(10), [] {});
  engine.schedule_at(SimTime(20), [] {});
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.run_all();
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.events_fired(), 1u);
}

TEST(Engine, CancelFromInsideAnAction) {
  Engine engine;
  bool later_fired = false;
  EventId self = 0;
  bool cancelled_self = true;
  bool cancelled_later = false;
  const EventId later =
      engine.schedule_at(SimTime(20), [&] { later_fired = true; });
  self = engine.schedule_at(SimTime(10), [&] {
    cancelled_self = engine.cancel(self);  // already firing: not pending
    cancelled_later = engine.cancel(later);
  });
  engine.run_all();
  EXPECT_FALSE(cancelled_self);
  EXPECT_TRUE(cancelled_later);
  EXPECT_FALSE(later_fired);
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(Engine, CancelReleasesTheActionImmediately) {
  Engine engine;
  auto token = std::make_shared<int>(0);
  const EventId id = engine.schedule_at(SimTime(10), [token] {});
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Engine, RunUntilAdvancesClockEvenWithoutEvents) {
  Engine engine;
  engine.run_until(SimTime(500));
  EXPECT_EQ(engine.now(), SimTime(500));
}

TEST(Engine, RunUntilStopsAtBoundaryInclusive) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(SimTime(10), [&] { order.push_back(1); });
  engine.schedule_at(SimTime(20), [&] { order.push_back(2); });
  engine.schedule_at(SimTime(21), [&] { order.push_back(3); });
  engine.run_until(SimTime(20));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.now(), SimTime(20));
  engine.run_until(SimTime(30));
  EXPECT_EQ(order.size(), 3u);
}

TEST(Engine, EventsScheduledDuringRunFire) {
  Engine engine;
  int count = 0;
  std::function<void()> reschedule = [&] {
    if (++count < 5) engine.schedule_in(Duration::micros(10), reschedule);
  };
  engine.schedule_at(SimTime(0), reschedule);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(count, 5);
}

TEST(Engine, PendingEventsCount) {
  Engine engine;
  const EventId a = engine.schedule_at(SimTime(10), [] {});
  engine.schedule_at(SimTime(20), [] {});
  EXPECT_EQ(engine.pending_events(), 2u);
  engine.cancel(a);
  EXPECT_EQ(engine.pending_events(), 1u);
}

TEST(Engine, StepFiresExactlyOne) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(SimTime(10), [&] { ++fired; });
  engine.schedule_at(SimTime(20), [&] { ++fired; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(engine.events_fired(), 2u);
}

/// Callable that counts how often it is copied (its copies share `copies`).
struct CopyCounter {
  int* copies;
  int* calls;
  explicit CopyCounter(int* copies_in, int* calls_in)
      : copies(copies_in), calls(calls_in) {}
  CopyCounter(const CopyCounter& other)
      : copies(other.copies), calls(other.calls) {
    ++*copies;
  }
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(const CopyCounter&) = delete;
  CopyCounter& operator=(CopyCounter&&) = delete;
  void operator()() const { ++*calls; }
};

TEST(Engine, FiringMovesTheActionWithoutCopying) {
  Engine engine;
  int copies = 0;
  int calls = 0;
  // Enough other events that the scheduled one is sifted through the heap
  // (and the heap's storage reallocates) before it fires.
  for (int i = 0; i < 64; ++i) {
    engine.schedule_in(Duration::micros(64 - i), [] {});
  }
  engine.schedule_in(Duration::micros(32), CopyCounter(&copies, &calls));
  for (int i = 0; i < 64; ++i) {
    engine.schedule_in(Duration::micros(i), [] {});
  }
  engine.run_all();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(copies, 0);
}

TEST(Engine, CancelledEventsAreSkippedAmongLiveOnes) {
  Engine engine;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(engine.schedule_at(SimTime(10 * (i % 3)),
                                     [&order, i] { order.push_back(i); }));
  }
  EXPECT_TRUE(engine.cancel(ids[0]));
  EXPECT_TRUE(engine.cancel(ids[4]));
  EXPECT_TRUE(engine.cancel(ids[8]));
  EXPECT_EQ(engine.pending_events(), 7u);
  engine.run_until(SimTime(10));
  // Time 0: 3, 6, 9 (0 cancelled); time 10: 1, 7 (4 cancelled).
  EXPECT_EQ(order, (std::vector<int>{3, 6, 9, 1, 7}));
  engine.run_all();
  // Time 20: 2, 5 (8 cancelled).
  EXPECT_EQ(order, (std::vector<int>{3, 6, 9, 1, 7, 2, 5}));
  EXPECT_EQ(engine.events_fired(), 7u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run = [] {
    Engine engine;
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 50; ++i) {
      engine.schedule_at(SimTime((i * 7) % 40), [&trace, &engine] {
        trace.push_back(engine.now().as_micros());
      });
    }
    engine.run_all();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(Engine, StaleIdDoesNotCancelTheEventReusingItsSlot) {
  Engine engine;
  // Fired: the slot is free again once the action has run.
  const EventId fired = engine.schedule_at(SimTime(10), [] {});
  engine.run_all();
  bool reused_fired = false;
  const EventId after_fire =
      engine.schedule_at(SimTime(20), [&] { reused_fired = true; });
  // Same slot (low half), new generation: the ids differ.
  EXPECT_EQ(fired & 0xFFFF'FFFFu, after_fire & 0xFFFF'FFFFu);
  EXPECT_NE(fired, after_fire);
  EXPECT_FALSE(engine.cancel(fired));
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.run_all();
  EXPECT_TRUE(reused_fired);

  // Cancelled: the slot is freed when the tombstone leaves the heap.
  const EventId cancelled = engine.schedule_at(SimTime(30), [] {});
  EXPECT_TRUE(engine.cancel(cancelled));
  engine.run_all();
  bool reused_cancelled = false;
  const EventId after_cancel =
      engine.schedule_at(SimTime(40), [&] { reused_cancelled = true; });
  EXPECT_EQ(cancelled & 0xFFFF'FFFFu, after_cancel & 0xFFFF'FFFFu);
  EXPECT_FALSE(engine.cancel(cancelled));
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.run_all();
  EXPECT_TRUE(reused_cancelled);
}

TEST(Engine, ActionsRunInPlaceWhileTheSlotTableGrows) {
  Engine engine;
  // The first action schedules far more events than one chunk of slots
  // holds, then still uses its own captured state.
  std::vector<int> fired;
  auto token = std::make_shared<int>(7);
  engine.schedule_at(SimTime(0), [&engine, &fired, token] {
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_in(Duration::micros(1 + i), [&fired, i] {
        fired.push_back(i);
      });
    }
    fired.push_back(*token);
  });
  engine.run_all();
  ASSERT_EQ(fired.size(), 1001u);
  EXPECT_EQ(fired.front(), 7);
  EXPECT_EQ(fired[1], 0);
  EXPECT_EQ(fired.back(), 999);
  EXPECT_EQ(token.use_count(), 1);  // released after firing
}

/// Reference model for the property test: pending events in an ordered
/// set on (time, priority, scheduling sequence), the order the engine
/// promises.
struct ReferenceQueue {
  struct Entry {
    std::int64_t at;
    int priority;
    std::uint64_t seq;
    auto operator<=>(const Entry&) const = default;
  };
  std::set<Entry> pending;
  std::uint64_t next_seq = 0;
};

/// Drives an Engine and a ReferenceQueue with the same seeded sequence of
/// schedule_at / schedule_in / cancel calls, issued both from the test and
/// from inside firing actions, and checks firing order and
/// pending_events() after every step.
class EngineModelCheck {
 public:
  explicit EngineModelCheck(std::uint32_t seed) : rng_(seed) {}

  void run(int steps) {
    for (int i = 0; i < 20; ++i) random_op();
    for (int i = 0; i < steps && !model_.pending.empty(); ++i) {
      if (rng_() % 3 == 0) random_op();
      expected_ = *model_.pending.begin();
      model_.pending.erase(model_.pending.begin());
      firing_ = true;
      ASSERT_TRUE(engine_.step());
      ASSERT_FALSE(firing_) << "step " << i << " fired nothing";
      ASSERT_EQ(engine_.pending_events(), model_.pending.size())
          << "step " << i;
      ASSERT_EQ(engine_.now().as_micros(), expected_.at);
    }
    // Drain what is left; the engine must agree that nothing remains.
    while (!model_.pending.empty()) {
      expected_ = *model_.pending.begin();
      model_.pending.erase(model_.pending.begin());
      firing_ = true;
      ASSERT_TRUE(engine_.step());
    }
    EXPECT_FALSE(engine_.step());
    EXPECT_EQ(engine_.pending_events(), 0u);
    EXPECT_GT(fired_, 0u);
    EXPECT_GT(cancelled_, 0u);
  }

 private:
  Engine engine_;
  ReferenceQueue model_;
  std::mt19937 rng_;
  /// Every id ever issued, with its reference entry (fired and cancelled
  /// ones stay, so stale ids get cancelled too).
  std::vector<std::pair<EventId, ReferenceQueue::Entry>> issued_;
  ReferenceQueue::Entry expected_{};
  bool firing_ = false;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;

  void on_fire(ReferenceQueue::Entry self) {
    ASSERT_TRUE(firing_);
    ASSERT_EQ(self, expected_);
    firing_ = false;
    ++fired_;
    const auto nested = rng_() % 4;
    for (std::uint32_t i = 0; i < nested; ++i) random_op();
  }

  void random_op() {
    const auto op = rng_() % 8;
    if (op < 5) {
      const auto priority = static_cast<int>(rng_() % 4);
      const auto delay = static_cast<std::int64_t>(rng_() % 6);  // many ties
      const ReferenceQueue::Entry entry{engine_.now().as_micros() + delay,
                                        priority, model_.next_seq++};
      const auto action = [this, entry] { on_fire(entry); };
      const auto p = static_cast<EventPriority>(priority);
      const EventId id =
          op < 3 ? engine_.schedule_at(SimTime(entry.at), action, p)
                 : engine_.schedule_in(Duration::micros(delay), action, p);
      ASSERT_NE(id, 0u);
      model_.pending.insert(entry);
      issued_.emplace_back(id, entry);
    } else if (!issued_.empty()) {
      const auto& [id, entry] = issued_[rng_() % issued_.size()];
      const bool pending = model_.pending.erase(entry) == 1;
      ASSERT_EQ(engine_.cancel(id), pending);
      if (pending) ++cancelled_;
    }
  }
};

TEST(EngineProperty, MatchesOrderedReferenceUnderRandomCalls) {
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    EngineModelCheck check(seed);
    check.run(2'000);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// --- vehicle ------------------------------------------------------------------

TEST(VehicleModel, AcceleratesUnderThrottle) {
  VehicleModel vehicle;
  vehicle.set_drive_command(1.0);
  for (int i = 0; i < 1000; ++i) vehicle.step(Duration::millis(10));
  EXPECT_GT(vehicle.speed_kmh(), 50.0);
  EXPECT_GT(vehicle.position_m(), 0.0);
}

TEST(VehicleModel, ReachesDragLimitedTopSpeed) {
  VehicleModel vehicle;
  vehicle.set_drive_command(1.0);
  for (int i = 0; i < 60000; ++i) vehicle.step(Duration::millis(10));
  // Equilibrium: 6000 N = 0.8 v^2 + 150 -> v ~ 85.5 m/s.
  EXPECT_NEAR(vehicle.speed_mps(), 85.5, 1.0);
}

TEST(VehicleModel, BrakesToStandstill) {
  VehicleModel vehicle;
  vehicle.set_speed_mps(30.0);
  vehicle.set_drive_command(-1.0);
  for (int i = 0; i < 1000; ++i) vehicle.step(Duration::millis(10));
  EXPECT_DOUBLE_EQ(vehicle.speed_mps(), 0.0);
}

TEST(VehicleModel, SpeedNeverNegative) {
  VehicleModel vehicle;
  vehicle.set_drive_command(-1.0);
  vehicle.step(Duration::seconds(10));
  EXPECT_GE(vehicle.speed_mps(), 0.0);
}

TEST(VehicleModel, CommandClamped) {
  VehicleModel vehicle;
  vehicle.set_drive_command(5.0);
  EXPECT_DOUBLE_EQ(vehicle.drive_command(), 1.0);
  vehicle.set_drive_command(-5.0);
  EXPECT_DOUBLE_EQ(vehicle.drive_command(), -1.0);
}

TEST(VehicleModel, CoastsDownWithoutThrottle) {
  VehicleModel vehicle;
  vehicle.set_speed_mps(30.0);
  vehicle.set_drive_command(0.0);
  for (int i = 0; i < 100; ++i) vehicle.step(Duration::millis(10));
  EXPECT_LT(vehicle.speed_mps(), 30.0);
}

// --- lane -----------------------------------------------------------------------

TEST(LaneModel, DriftsWithConfiguredRate) {
  LaneModel lane;
  lane.set_drift_rate(0.5);
  for (int i = 0; i < 100; ++i) lane.step(Duration::millis(10));
  EXPECT_NEAR(lane.lateral_offset_m(), 0.5, 1e-9);
}

TEST(LaneModel, DepartureThreshold) {
  LaneModel lane;
  EXPECT_FALSE(lane.departing());
  lane.set_lateral_offset_m(1.3);
  EXPECT_TRUE(lane.departing());
  lane.set_lateral_offset_m(-1.3);
  EXPECT_TRUE(lane.departing());
}

TEST(LaneModel, CorrectionPullsBackToCentre) {
  LaneModel lane;
  lane.set_lateral_offset_m(1.0);
  lane.set_correction_rate(0.5);
  for (int i = 0; i < 150; ++i) lane.step(Duration::millis(10));
  EXPECT_LT(lane.lateral_offset_m(), 0.5);
}

TEST(LaneModel, OffsetClampedToLaneWidth) {
  LaneModel lane;
  lane.set_drift_rate(10.0);
  for (int i = 0; i < 1000; ++i) lane.step(Duration::millis(10));
  EXPECT_LE(lane.lateral_offset_m(), lane.params().lane_width_m);
}

}  // namespace
}  // namespace easis::sim
