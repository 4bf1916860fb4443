// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events fire in (time, priority, insertion
// sequence) order so the same configuration always produces the same trace —
// the property that lets the bench binaries regenerate the paper's figures
// bit-for-bit.
//
// Cost model (DESIGN.md §6): the heap holds 24-byte trivially copyable keys
// and the actions sit in a reused slot table, so once the table has grown
// the engine allocates nothing per event, and cancel is O(1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

namespace easis::sim {

/// Names a scheduled event: (generation << 32) | (slot + 1). Never 0, so
/// callers may use 0 as "no event". The generation makes an id stale once
/// its slot is released, so a reused slot is never cancelled by mistake.
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
  /// unknown. O(1): the id names the event's slot and generation.
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
    return heap_.size() - tombstones_;
  }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

 private:
  /// Heap element. Trivially copyable, so sifting the heap copies 24 bytes
  /// and never touches an action; the action stays in its slot.
  struct Key {
    std::int64_t at;      // SimTime in microseconds
    std::uint64_t order;  // priority << kPriorityShift | insertion sequence
    std::uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Key>);
  static constexpr int kPriorityShift = 56;
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.at != b.at ? a.at > b.at : a.order > b.order;
    }
  };

  enum class SlotState : std::uint8_t { kFree, kPending, kCancelled, kFiring };
  struct Slot {
    Action action;
    /// Bumped on every release; ids carry the value at scheduling time.
    std::uint32_t generation = 0;
    std::uint32_t next_free = 0;
    SlotState state = SlotState::kFree;
  };
  /// Slots live in fixed-size chunks that never move, so an action runs in
  /// place even when it schedules events that grow the table.
  static constexpr std::uint32_t kChunkBits = 7;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Binary heap under Later (std::push_heap / std::pop_heap).
  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  /// Cancelled events still in heap_.
  std::size_t tombstones_ = 0;
  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;

  [[nodiscard]] Slot& slot(std::uint32_t index) {
    return chunks_[index >> kChunkBits][index & (kChunkSize - 1)];
  }
  /// Takes a slot off the free list, or appends one.
  std::uint32_t acquire_slot();
  /// Drops the slot's action, makes its ids stale and frees it.
  void release_slot(std::uint32_t index);
  /// Removes and returns the earliest key.
  Key pop_key();
  /// Drops tombstones off the top of the heap; returns false when
  /// nothing live is left.
  bool skip_cancelled();
  bool fire_next();
};

}  // namespace easis::sim
