// The per-event path allocates nothing once its tables have grown: engine
// schedule/fire/cancel, the kernel's counter ticks with their alarm scan,
// and kernel observer notifications.
//
// This binary replaces the global operator new with a counting one, so it
// holds only these tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "os/kernel.hpp"
#include "sim/engine.hpp"

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

}  // namespace
}  // namespace easis
