// Sender-receiver communication (last-is-best semantics).
//
// Models the RTE's sender-receiver ports between runnables and the
// data path towards sensors/actuators and the communication gateway.
// Signals are named doubles with update metadata, bound once to dense
// handles (AUTOSAR's RTE resolves its port connections when it is
// generated, not by name at run time).
//
// Signals crossing the vehicle network additionally carry a *qualifier*:
// a receiver registers a ReceptionPolicy (deadline + substitute-value
// rule), after which read_qualified() classifies the signal as kValid,
// kTimeout (deadline exceeded since the last good update) or kInvalid
// (the protection layer rejected the latest data), and substitutes a safe
// value per policy instead of handing out stale or damaged data.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"
#include "util/strong_id.hpp"

namespace easis::rte {

enum class SignalQualifier : std::uint8_t {
  kValid = 0,
  kTimeout,  // no (accepted) update within the reception deadline
  kInvalid,  // latest reception was rejected (e.g. failed E2E check)
};

[[nodiscard]] const char* to_string(SignalQualifier qualifier);

/// What a degraded signal reads as.
enum class SubstitutePolicy : std::uint8_t {
  kHoldLast = 0,  // keep the last good value (tolerate brief dropouts)
  kDefault,       // fall back to the configured default
  kLimp,          // conservative limp-home value (safety signals)
};

struct ReceptionPolicy {
  /// Maximum age of the last good update; zero disables the deadline.
  sim::Duration deadline = sim::Duration::zero();
  SubstitutePolicy substitute = SubstitutePolicy::kHoldLast;
  /// Value substituted under SubstitutePolicy::kDefault.
  double default_value = 0.0;
  /// Value substituted under SubstitutePolicy::kLimp.
  double limp_value = 0.0;
};

/// Dense index of a signal bound on one SignalBus (see SignalBus::bind).
using SignalHandle = util::StrongId<struct SignalTag>;

/// Sender-receiver signals in a slot table. Names are bound to dense
/// handles once, at configuration time; the per-cycle API takes handles,
/// so a runnable's publish or read is an index, not a string hash. The
/// string overloads are thin wrappers (one lookup of a string_view, no
/// temporary std::string) for tests, tools and configuration code.
class SignalBus {
 public:
  struct Entry {
    double value = 0.0;
    sim::SimTime updated_at;
    std::uint64_t updates = 0;
    /// Latest reception was rejected by the protection layer.
    bool invalid = false;
  };

  struct QualifiedValue {
    double value = 0.0;
    SignalQualifier qualifier = SignalQualifier::kValid;
  };

  /// Observers get the name the signal was bound with.
  using Observer =
      std::function<void(const std::string&, double, sim::SimTime)>;

  SignalBus() = default;
  // The name index holds views of the stored names.
  SignalBus(const SignalBus&) = delete;
  SignalBus& operator=(const SignalBus&) = delete;

  /// Handle of `name`, binding it on first use (idempotent). Binding alone
  /// does not create the signal: has()/entry()/names() see it only once it
  /// was published or invalidated.
  SignalHandle bind(std::string_view name);
  /// Handle of an already bound name; invalid if `name` was never bound.
  [[nodiscard]] SignalHandle find(std::string_view name) const;
  [[nodiscard]] const std::string& name(SignalHandle signal) const;

  /// Writes a signal (creates it on first write); clears kInvalid.
  void publish(SignalHandle signal, double value, sim::SimTime at);
  void publish(std::string_view name, double value, sim::SimTime at) {
    publish(bind(name), value, at);
  }

  /// Marks the signal invalid (its producer received damaged data) without
  /// touching the last good value. Cleared by the next publish.
  void invalidate(SignalHandle signal, sim::SimTime at);
  void invalidate(std::string_view name, sim::SimTime at) {
    invalidate(bind(name), at);
  }

  /// Registers the receiver-side policy; the deadline is armed from `now`
  /// so a signal that never arrives at all still times out.
  void set_reception_policy(SignalHandle signal, ReceptionPolicy policy,
                            sim::SimTime now);
  void set_reception_policy(std::string_view name, ReceptionPolicy policy,
                            sim::SimTime now) {
    set_reception_policy(bind(name), policy, now);
  }
  [[nodiscard]] std::optional<ReceptionPolicy> reception_policy(
      SignalHandle signal) const;
  [[nodiscard]] std::optional<ReceptionPolicy> reception_policy(
      std::string_view name) const {
    return reception_policy(find(name));
  }

  // The reads below accept an invalid handle (an unbound name through the
  // string overloads) and treat it as a signal that never arrived.

  /// Classifies the signal at time `now` against its reception policy.
  /// Signals without a policy are kValid whenever they exist.
  [[nodiscard]] SignalQualifier qualifier(SignalHandle signal,
                                          sim::SimTime now) const;
  [[nodiscard]] SignalQualifier qualifier(std::string_view name,
                                          sim::SimTime now) const {
    return qualifier(find(name), now);
  }

  /// Policy-aware read: a kValid signal reads as its value; a degraded one
  /// reads as the substitute the policy prescribes. `fallback` covers
  /// signals that never arrived and hold-last with no last value.
  [[nodiscard]] QualifiedValue read_qualified(SignalHandle signal,
                                              sim::SimTime now,
                                              double fallback) const;
  [[nodiscard]] QualifiedValue read_qualified(std::string_view name,
                                              sim::SimTime now,
                                              double fallback) const {
    return read_qualified(find(name), now, fallback);
  }

  /// Last written value, if the signal exists.
  [[nodiscard]] std::optional<double> read(SignalHandle signal) const {
    const Entry* e = written(signal);
    return e == nullptr ? std::nullopt : std::optional<double>(e->value);
  }
  [[nodiscard]] std::optional<double> read(std::string_view name) const {
    return read(find(name));
  }

  /// Last written value or `fallback` for missing signals (initial ticks).
  [[nodiscard]] double read_or(SignalHandle signal, double fallback) const {
    const Entry* e = written(signal);
    return e == nullptr ? fallback : e->value;
  }
  [[nodiscard]] double read_or(std::string_view name, double fallback) const {
    return read_or(find(name), fallback);
  }

  [[nodiscard]] std::optional<Entry> entry(std::string_view name) const;
  [[nodiscard]] bool has(std::string_view name) const;
  /// Names of the existing signals, in first-bind order.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Observers see every publish (tracing, gateway bridging).
  void add_observer(Observer observer);

  // --- modelled signal queues (resource supervision extension) -------------
  //
  // Last-is-best signals cannot back up, so queue exhaustion is modelled
  // explicitly: a signal configured with a bounded queue counts each publish
  // as an enqueue until the consumer drains it. Values still follow
  // last-is-best semantics — the queue models *depth pressure* (how far the
  // consumer lags), which is what the Resource Supervision Unit watches.

  struct QueueState {
    std::uint32_t capacity = 0;
    std::uint32_t depth = 0;
    std::uint32_t peak_depth = 0;
    std::uint64_t enqueued = 0;
    std::uint64_t drained = 0;
    /// Publishes that arrived while the queue was full (lost updates).
    std::uint64_t overflows = 0;
  };

  /// Gives `name` a bounded queue of `capacity` entries (re-configuring
  /// resets the queue state).
  void configure_queue(std::string_view name, std::uint32_t capacity);
  /// Consumer side: removes up to `count` queued entries; returns how many
  /// were actually drained.
  std::uint32_t drain(SignalHandle signal, std::uint32_t count = 1);
  std::uint32_t drain(std::string_view name, std::uint32_t count = 1) {
    return drain(find(name), count);
  }
  /// Empties the queue and clears peak/overflow counters (task restart).
  void clear_queue(std::string_view name);
  [[nodiscard]] std::optional<QueueState> queue_state(
      SignalHandle signal) const;
  [[nodiscard]] std::optional<QueueState> queue_state(
      std::string_view name) const {
    return queue_state(find(name));
  }
  /// Names of the queued signals, in first-bind order.
  [[nodiscard]] std::vector<std::string> queued_signal_names() const;

 private:
  /// Everything the bus keeps per signal, indexed by handle.
  struct Slot {
    Entry entry;
    bool has_policy = false;
    bool has_queue = false;
    ReceptionPolicy policy;
    sim::SimTime armed_at;
    QueueState queue;
  };

  std::vector<Slot> slots_;
  /// Bound names by handle; a deque, so the views in `index_` and the
  /// names handed to observers stay put while more names are bound.
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, SignalHandle> index_;
  std::vector<Observer> observers_;

  /// Published or invalidated at least once.
  [[nodiscard]] static bool exists(const Entry& e) {
    return e.updates > 0 || e.invalid;
  }
  [[nodiscard]] Slot& slot(SignalHandle signal);
  /// The slot of a valid handle, nullptr for an invalid one.
  [[nodiscard]] const Slot* slot_or_null(SignalHandle signal) const;
  /// The entry of a signal that was published at least once.
  [[nodiscard]] const Entry* written(SignalHandle signal) const {
    const Slot* s = slot_or_null(signal);
    return s == nullptr || s->entry.updates == 0 ? nullptr : &s->entry;
  }
};

}  // namespace easis::rte
