#include "rte/signal_bus.hpp"

#include <algorithm>

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

void SignalBus::publish(const std::string& name, double value,
                        sim::SimTime at) {
  // A map update, cheaper than a span: counted, not timed (DESIGN.md §15).
  EASIS_PROFILE_COUNT("rte.signals_published", 1);
  Entry& e = entries_[name];
  e.value = value;
  e.updated_at = at;
  ++e.updates;
  e.invalid = false;
  if (auto it = queues_.find(name); it != queues_.end()) {
    QueueState& q = it->second;
    if (q.capacity != 0 && q.depth >= q.capacity) {
      ++q.overflows;
    } else {
      ++q.depth;
      ++q.enqueued;
      q.peak_depth = std::max(q.peak_depth, q.depth);
    }
  }
  for (const auto& observer : observers_) observer(name, value, at);
}

void SignalBus::invalidate(const std::string& name, sim::SimTime at) {
  Entry& e = entries_[name];
  e.invalid = true;
  // Not an update: updated_at stays at the last *good* reception so the
  // timeout keeps measuring the age of trusted data.
  (void)at;
}

void SignalBus::set_reception_policy(const std::string& name,
                                     ReceptionPolicy policy,
                                     sim::SimTime now) {
  policies_[name] = Policy{policy, now};
}

std::optional<ReceptionPolicy> SignalBus::reception_policy(
    const std::string& name) const {
  auto it = policies_.find(name);
  if (it == policies_.end()) return std::nullopt;
  return it->second.policy;
}

SignalQualifier SignalBus::qualifier(const std::string& name,
                                     sim::SimTime now) const {
  auto entry_it = entries_.find(name);
  if (entry_it != entries_.end() && entry_it->second.invalid) {
    return SignalQualifier::kInvalid;
  }
  auto policy_it = policies_.find(name);
  if (policy_it == policies_.end()) return SignalQualifier::kValid;
  const auto& [policy, armed_at] = policy_it->second;
  if (policy.deadline <= sim::Duration::zero()) return SignalQualifier::kValid;
  const sim::SimTime last_good = (entry_it != entries_.end() &&
                                  entry_it->second.updates > 0)
                                     ? entry_it->second.updated_at
                                     : armed_at;
  if (now - last_good > policy.deadline) return SignalQualifier::kTimeout;
  return SignalQualifier::kValid;
}

SignalBus::QualifiedValue SignalBus::read_qualified(const std::string& name,
                                                    sim::SimTime now,
                                                    double fallback) const {
  QualifiedValue out;
  out.qualifier = qualifier(name, now);
  const auto last = read(name);
  if (out.qualifier == SignalQualifier::kValid) {
    out.value = last.value_or(fallback);
    return out;
  }
  auto policy_it = policies_.find(name);
  const ReceptionPolicy policy =
      policy_it == policies_.end() ? ReceptionPolicy{}
                                   : policy_it->second.policy;
  switch (policy.substitute) {
    case SubstitutePolicy::kHoldLast:
      out.value = last.value_or(fallback);
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

std::optional<double> SignalBus::read(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.updates == 0) return std::nullopt;
  return it->second.value;
}

double SignalBus::read_or(const std::string& name, double fallback) const {
  return read(name).value_or(fallback);
}

std::optional<SignalBus::Entry> SignalBus::entry(
    const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool SignalBus::has(const std::string& name) const {
  return entries_.contains(name);
}

std::vector<std::string> SignalBus::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, _] : entries_) out.push_back(name);
  return out;
}

void SignalBus::add_observer(Observer observer) {
  observers_.push_back(std::move(observer));
}

void SignalBus::configure_queue(const std::string& name,
                                std::uint32_t capacity) {
  QueueState q;
  q.capacity = capacity;
  queues_[name] = q;
}

std::uint32_t SignalBus::drain(const std::string& name, std::uint32_t count) {
  auto it = queues_.find(name);
  if (it == queues_.end()) return 0;
  QueueState& q = it->second;
  const std::uint32_t drained = std::min(q.depth, count);
  q.depth -= drained;
  q.drained += drained;
  EASIS_PROFILE_COUNT("rte.queue_drained", drained);
  return drained;
}

void SignalBus::clear_queue(const std::string& name) {
  auto it = queues_.find(name);
  if (it == queues_.end()) return;
  const std::uint32_t capacity = it->second.capacity;
  it->second = QueueState{};
  it->second.capacity = capacity;
}

std::optional<SignalBus::QueueState> SignalBus::queue_state(
    const std::string& name) const {
  auto it = queues_.find(name);
  if (it == queues_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> SignalBus::queued_signal_names() const {
  std::vector<std::string> out;
  out.reserve(queues_.size());
  for (const auto& [name, _] : queues_) out.push_back(name);
  return out;
}

}  // namespace easis::rte
