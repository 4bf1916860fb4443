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
  const EventId id = next_id_++;
  queue_.push_back(
      Event{at, static_cast<int>(priority), false, id, std::move(action)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  return id;
}

EventId Engine::schedule_in(Duration delay, Action action,
                            EventPriority priority) {
  if (delay < Duration::zero()) {
    throw std::invalid_argument("Engine::schedule_in: negative delay");
  }
  return schedule_at(now_ + delay, std::move(action), priority);
}

bool Engine::cancel(EventId id) {
  // Tombstone in place: the heap order of every other event is untouched,
  // so cancelling never changes which live event fires next.
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [id](const Event& ev) { return ev.id == id; });
  if (it == queue_.end() || it->cancelled) return false;
  it->cancelled = true;
  it->action = nullptr;
  ++tombstones_;
  return true;
}

Engine::Event Engine::pop_next() {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  return ev;
}

bool Engine::skip_cancelled() {
  while (tombstones_ > 0 && queue_.front().cancelled) {
    pop_next();
    --tombstones_;
  }
  return !queue_.empty();
}

bool Engine::fire_next() {
  if (!skip_cancelled()) return false;
  Event ev = pop_next();
  now_ = ev.at;
  ++fired_;
  ev.action();
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
  while (skip_cancelled() && queue_.front().at <= until) fire_next();
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
