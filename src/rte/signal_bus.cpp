#include "rte/signal_bus.hpp"

#include <algorithm>
#include <cassert>

#include "profile/profiler.hpp"

namespace easis::rte {

const char* to_string(SignalQualifier qualifier) {
  switch (qualifier) {
    case SignalQualifier::kValid: return "valid";
    case SignalQualifier::kTimeout: return "timeout";
    case SignalQualifier::kInvalid: return "invalid";
  }
  return "?";
}

SignalHandle SignalBus::bind(std::string_view name) {
  if (auto it = index_.find(name); it != index_.end()) return it->second;
  const SignalHandle signal(
      static_cast<SignalHandle::underlying_type>(slots_.size()));
  const std::string& stored = names_.emplace_back(name);
  slots_.emplace_back();
  index_.emplace(stored, signal);
  return signal;
}

SignalHandle SignalBus::find(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? SignalHandle{} : it->second;
}

const std::string& SignalBus::name(SignalHandle signal) const {
  assert(signal.valid() && signal.value() < names_.size());
  return names_[signal.value()];
}

SignalBus::Slot& SignalBus::slot(SignalHandle signal) {
  assert(signal.valid() && signal.value() < slots_.size());
  return slots_[signal.value()];
}

const SignalBus::Slot* SignalBus::slot_or_null(SignalHandle signal) const {
  if (!signal.valid()) return nullptr;
  assert(signal.value() < slots_.size());
  return &slots_[signal.value()];
}

void SignalBus::publish(SignalHandle signal, double value, sim::SimTime at) {
  // A slot update, cheaper than a span: counted, not timed (DESIGN.md §15).
  EASIS_PROFILE_COUNT("rte.signals_published", 1);
  Slot& s = slot(signal);
  s.entry.value = value;
  s.entry.updated_at = at;
  ++s.entry.updates;
  s.entry.invalid = false;
  if (s.has_queue) {
    QueueState& q = s.queue;
    if (q.capacity != 0 && q.depth >= q.capacity) {
      ++q.overflows;
    } else {
      ++q.depth;
      ++q.enqueued;
      q.peak_depth = std::max(q.peak_depth, q.depth);
    }
  }
  if (observers_.empty()) return;
  const std::string& stored = names_[signal.value()];
  for (const auto& observer : observers_) observer(stored, value, at);
}

void SignalBus::invalidate(SignalHandle signal, sim::SimTime at) {
  slot(signal).entry.invalid = true;
  // Not an update: updated_at stays at the last *good* reception so the
  // timeout keeps measuring the age of trusted data.
  (void)at;
}

void SignalBus::set_reception_policy(SignalHandle signal,
                                     ReceptionPolicy policy,
                                     sim::SimTime now) {
  Slot& s = slot(signal);
  s.has_policy = true;
  s.policy = policy;
  s.armed_at = now;
}

std::optional<ReceptionPolicy> SignalBus::reception_policy(
    SignalHandle signal) const {
  const Slot* s = slot_or_null(signal);
  if (s == nullptr || !s->has_policy) return std::nullopt;
  return s->policy;
}

SignalQualifier SignalBus::qualifier(SignalHandle signal,
                                     sim::SimTime now) const {
  const Slot* s = slot_or_null(signal);
  if (s == nullptr) return SignalQualifier::kValid;
  if (s->entry.invalid) return SignalQualifier::kInvalid;
  if (!s->has_policy || s->policy.deadline <= sim::Duration::zero()) {
    return SignalQualifier::kValid;
  }
  const sim::SimTime last_good =
      s->entry.updates > 0 ? s->entry.updated_at : s->armed_at;
  if (now - last_good > s->policy.deadline) return SignalQualifier::kTimeout;
  return SignalQualifier::kValid;
}

SignalBus::QualifiedValue SignalBus::read_qualified(SignalHandle signal,
                                                    sim::SimTime now,
                                                    double fallback) const {
  QualifiedValue out;
  out.qualifier = qualifier(signal, now);
  const double last = read_or(signal, fallback);
  if (out.qualifier == SignalQualifier::kValid) {
    out.value = last;
    return out;
  }
  const Slot* s = slot_or_null(signal);
  const ReceptionPolicy policy =
      s != nullptr && s->has_policy ? s->policy : ReceptionPolicy{};
  switch (policy.substitute) {
    case SubstitutePolicy::kHoldLast:
      out.value = last;
      break;
    case SubstitutePolicy::kDefault:
      out.value = policy.default_value;
      break;
    case SubstitutePolicy::kLimp:
      out.value = policy.limp_value;
      break;
  }
  return out;
}

std::optional<SignalBus::Entry> SignalBus::entry(std::string_view name) const {
  const Slot* s = slot_or_null(find(name));
  if (s == nullptr || !exists(s->entry)) return std::nullopt;
  return s->entry;
}

bool SignalBus::has(std::string_view name) const {
  const Slot* s = slot_or_null(find(name));
  return s != nullptr && exists(s->entry);
}

std::vector<std::string> SignalBus::names() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (exists(slots_[i].entry)) out.push_back(names_[i]);
  }
  return out;
}

void SignalBus::add_observer(Observer observer) {
  observers_.push_back(std::move(observer));
}

void SignalBus::configure_queue(std::string_view name,
                                std::uint32_t capacity) {
  Slot& s = slot(bind(name));
  s.has_queue = true;
  s.queue = QueueState{};
  s.queue.capacity = capacity;
}

std::uint32_t SignalBus::drain(SignalHandle signal, std::uint32_t count) {
  if (!signal.valid()) return 0;
  Slot& s = slot(signal);
  if (!s.has_queue) return 0;
  QueueState& q = s.queue;
  const std::uint32_t drained = std::min(q.depth, count);
  q.depth -= drained;
  q.drained += drained;
  EASIS_PROFILE_COUNT("rte.queue_drained", drained);
  return drained;
}

void SignalBus::clear_queue(std::string_view name) {
  const SignalHandle signal = find(name);
  if (!signal.valid()) return;
  Slot& s = slot(signal);
  if (!s.has_queue) return;
  const std::uint32_t capacity = s.queue.capacity;
  s.queue = QueueState{};
  s.queue.capacity = capacity;
}

std::optional<SignalBus::QueueState> SignalBus::queue_state(
    SignalHandle signal) const {
  const Slot* s = slot_or_null(signal);
  if (s == nullptr || !s->has_queue) return std::nullopt;
  return s->queue;
}

std::vector<std::string> SignalBus::queued_signal_names() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].has_queue) out.push_back(names_[i]);
  }
  return out;
}

}  // namespace easis::rte
