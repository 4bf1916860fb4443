// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events fire in (time, priority, insertion
// sequence) order so the same configuration always produces the same trace —
// the property that lets the bench binaries regenerate the paper's figures
// bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace easis::sim {

using EventId = std::uint64_t;

/// Scheduling priority of a simultaneous event; lower value fires first.
/// The OS kernel uses kDispatch so that e.g. alarm expiries at time t are
/// processed before user callbacks scheduled at t.
enum class EventPriority : int {
  kKernel = 0,
  kDispatch = 1,
  kDefault = 2,
  kMonitor = 3,
};

class Engine {
 public:
  using Action = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` to run at absolute time `at` (must be >= now()).
  EventId schedule_at(SimTime at, Action action,
                      EventPriority priority = EventPriority::kDefault);

  /// Schedules `action` to run `delay` from now.
  EventId schedule_in(Duration delay, Action action,
                      EventPriority priority = EventPriority::kDefault);

  /// Cancels a pending event and releases its action. Returns false if the
  /// event already fired (or is firing), was already cancelled, or is
  /// unknown. O(pending events): a linear scan, since cancels are rare
  /// next to the events fired.
  bool cancel(EventId id);

  /// Runs the next event. Returns false if the queue is empty.
  bool step();

  /// Runs all events up to and including time `until`.
  void run_until(SimTime until);

  /// Runs for `d` from the current time.
  void run_for(Duration d) { run_until(now_ + d); }

  /// Drains the whole queue (use only in tests with finite event sets).
  void run_all();

  /// Events still to fire (cancelled ones excluded).
  [[nodiscard]] std::size_t pending_events() const {
    return queue_.size() - tombstones_;
  }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

 private:
  struct Event {
    SimTime at;
    int priority;
    /// Tombstone: cancelled while pending, dropped when it reaches the top.
    bool cancelled = false;
    EventId id;  // also the insertion sequence number
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.id > b.id;
    }
  };

  /// Binary heap under Later (std::push_heap / std::pop_heap), so the
  /// next event can be moved out rather than copied from a const top().
  std::vector<Event> queue_;
  /// Cancelled events still in queue_.
  std::size_t tombstones_ = 0;
  SimTime now_;
  EventId next_id_ = 1;
  std::uint64_t fired_ = 0;

  /// Drops tombstones off the top of the heap; returns false when
  /// nothing live is left.
  bool skip_cancelled();
  /// Removes and returns the earliest event.
  Event pop_next();
  bool fire_next();
};

}  // namespace easis::sim
