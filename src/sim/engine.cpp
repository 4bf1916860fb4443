#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "profile/profiler.hpp"

namespace easis::sim {

EventId Engine::schedule_at(SimTime at, Action action, EventPriority priority) {
  if (at < now_) {
    throw std::invalid_argument("Engine::schedule_at: time in the past");
  }
  const std::uint32_t index = acquire_slot();
  Slot& s = slot(index);
  s.action = std::move(action);
  s.state = SlotState::kPending;
  const auto rank = static_cast<std::uint64_t>(priority);
  heap_.push_back(
      Key{at.as_micros(), (rank << kPriorityShift) | next_seq_++, index});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return (std::uint64_t{s.generation} << 32) | (index + 1);
}

EventId Engine::schedule_in(Duration delay, Action action,
                            EventPriority priority) {
  if (delay < Duration::zero()) {
    throw std::invalid_argument("Engine::schedule_in: negative delay");
  }
  return schedule_at(now_ + delay, std::move(action), priority);
}

bool Engine::cancel(EventId id) {
  // The low half is slot + 1, so id 0 (and every id with an empty low
  // half) is unknown.
  const auto low = static_cast<std::uint32_t>(id);
  if (low == 0 || low > slot_count_) return false;
  Slot& s = slot(low - 1);
  if (s.generation != static_cast<std::uint32_t>(id >> 32) ||
      s.state != SlotState::kPending) {
    return false;
  }
  // Tombstone: the key stays in the heap, so the order of every other
  // event is untouched; the slot is freed when the key reaches the top.
  s.state = SlotState::kCancelled;
  s.action = nullptr;
  ++tombstones_;
  return true;
}

std::uint32_t Engine::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slot(index).next_free;
    return index;
  }
  if (slot_count_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return slot_count_++;
}

void Engine::release_slot(std::uint32_t index) {
  Slot& s = slot(index);
  s.action = nullptr;
  ++s.generation;
  s.state = SlotState::kFree;
  s.next_free = free_head_;
  free_head_ = index;
}

Engine::Key Engine::pop_key() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  return key;
}

bool Engine::skip_cancelled() {
  while (tombstones_ > 0 &&
         slot(heap_.front().slot).state == SlotState::kCancelled) {
    release_slot(pop_key().slot);
    --tombstones_;
  }
  return !heap_.empty();
}

bool Engine::fire_next() {
  if (!skip_cancelled()) return false;
  const Key key = pop_key();
  Slot& s = slot(key.slot);
  s.state = SlotState::kFiring;
  now_ = SimTime(key.at);
  ++fired_;
  // The action runs in place (slots never move) and its slot is released
  // once it returns or throws, so it cannot be reused while still running.
  struct Release {
    Engine& engine;
    std::uint32_t index;
    ~Release() { engine.release_slot(index); }
  } release{*this, key.slot};
  s.action();
  return true;
}

// The profiler's "sim.events_fired" counter is added once per call rather
// than once per event, which keeps it off the per-event path.

bool Engine::step() {
  if (!fire_next()) return false;
  EASIS_PROFILE_COUNT("sim.events_fired", 1);
  return true;
}

void Engine::run_until(SimTime until) {
  EASIS_PROFILE_SPAN("sim.run_until");
  [[maybe_unused]] const std::uint64_t fired_before = fired_;
  while (skip_cancelled() && heap_.front().at <= until.as_micros()) {
    fire_next();
  }
  if (now_ < until) now_ = until;
  EASIS_PROFILE_COUNT("sim.events_fired", fired_ - fired_before);
}

void Engine::run_all() {
  [[maybe_unused]] const std::uint64_t fired_before = fired_;
  while (fire_next()) {
  }
  EASIS_PROFILE_COUNT("sim.events_fired", fired_ - fired_before);
}

}  // namespace easis::sim
