// Simulated non-volatile fault memory (reset-safe fault memory extension).
//
// The paper's fault-treatment chain ends at "ECU software reset" (§3.3);
// a production ECU additionally persists the evidence of *why* it reset.
// NvmStore models the flash/EEPROM block that carries the DTC store,
// freeze frames, restart/reset counters and the reset-cause record across
// ECU software resets (cf. watchdogd's reset-reason backend):
//
//   - two banks (double-buffered commit): a commit always serialises into
//     the currently *inactive* bank and flips only after the write
//     completed, so a corruption of one bank never loses both images;
//   - every bank is CRC-8 protected (same SAE J1850 polynomial the E2E
//     layer uses); a failed check is detected and surfaced as an
//     ErrorType::kNvmCorruption fault, never silently consumed;
//   - load() picks the valid bank with the newest sequence number and
//     reports whether it had to fall back past a corrupted bank.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fmf/dtc.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"
#include "wdg/types.hpp"

namespace easis::fmf {

/// Who pulled the reset trigger.
enum class ResetSource : std::uint8_t {
  kNone = 0,
  /// FMF treatment: global ECU state faulty -> software reset (paper §3.3).
  kEcuFaulty = 1,
  /// The hardware watchdog expired: the software watchdog itself was hung,
  /// starved or sequence-corrupted (self-supervision layer).
  kHardwareWatchdog = 2,
  /// Post-reset recovery validation failed inside the warm-up window.
  kRecoveryFailure = 3,
  /// Commanded over the diagnostic protocol (UDS-lite ECUReset, 0x11).
  kDiagnosticRequest = 4,
  /// The thermal-derating ladder reached its shutdown stage: controlled
  /// shutdown into the persistent safe state (environmental supervision).
  kThermalShutdown = 5,
  /// A dependability policy selected TreatmentAction::kSafeState for a
  /// faulty application: controlled park into the persistent safe state.
  kPolicySafeState = 6,
};

[[nodiscard]] constexpr std::string_view to_string(ResetSource s) {
  switch (s) {
    case ResetSource::kNone: return "none";
    case ResetSource::kEcuFaulty: return "ecu_faulty";
    case ResetSource::kHardwareWatchdog: return "hw_watchdog";
    case ResetSource::kRecoveryFailure: return "recovery_failure";
    case ResetSource::kDiagnosticRequest: return "diag_request";
    case ResetSource::kThermalShutdown: return "thermal_shutdown";
    case ResetSource::kPolicySafeState: return "policy_safe_state";
  }
  return "?";
}

/// One persisted reset event: which task/application/error class drove the
/// decision, at what simulation time.
struct ResetCause {
  ResetSource source = ResetSource::kNone;
  TaskId task;
  ApplicationId application;
  wdg::ErrorType error = wdg::ErrorType::kAliveness;
  sim::SimTime time;
  std::string detail;
};

/// A persisted DTC entry (mirror of DtcEntry without the live signal-bus
/// dependency; freeze frames travel with it).
struct PersistedDtc {
  DtcKey key;
  std::uint32_t occurrences = 0;
  sim::SimTime first_seen;
  sim::SimTime last_seen;
  bool active = true;
  std::optional<FreezeFrame> freeze_frame;
};

/// The logical content of the NVM block.
struct NvmImage {
  /// Lifetime ECU software-reset counter.
  std::uint32_t reset_count = 0;
  /// Reboot-storm latch: once set, the FMF refuses further resets and the
  /// node stays in its limp-home/safe state until the memory is erased.
  bool storm_latched = false;
  /// Most recent reset causes, oldest first (bounded by kResetHistoryDepth).
  std::vector<ResetCause> reset_history;
  /// Diagnostic trouble codes incl. freeze frames.
  std::vector<PersistedDtc> dtcs;
  /// Deadline-transgression records of the supervised-process client API
  /// (never evicted: like the reset chain, they explain field behaviour).
  std::vector<wdg::TransgressionRecord> transgressions;
  /// Last committed power mode of a duty-cycled node (empty = no mode
  /// machine): a node resetting out of deep sleep re-seeds its mode
  /// machine from this instead of defaulting into Run, so supervision
  /// re-arms with the silence contract still in force.
  std::string power_mode;
};

/// Reset events retained in the history ring.
inline constexpr std::size_t kResetHistoryDepth = 16;

/// Serialised size of `image` in bytes (bank header excluded): what a
/// commit of it writes, computed without writing anything.
[[nodiscard]] std::size_t payload_bytes(const NvmImage& image);
/// The bytes one DTC entry (freeze frame included) or one reset cause
/// adds to its image's payload.
[[nodiscard]] std::size_t payload_bytes(const PersistedDtc& dtc);
[[nodiscard]] std::size_t payload_bytes(const ResetCause& cause);

/// The flash-full eviction order of one image, lowest priority first:
/// freeze frames of inactive DTCs, inactive DTCs, freeze frames of active
/// DTCs, active DTCs (each class oldest last_seen first, ties to the lower
/// index), then the reset history down to its newest entry. The reset
/// chain's newest entry and the transgression records are never dropped:
/// they explain why the ECU is in the state it is in.
///
/// The order is computed once, so each eviction is O(1): a dropped DTC or
/// history entry is only marked, and compact() removes the marked entries
/// in one pass before the image is written.
class EvictionLadder {
 public:
  explicit EvictionLadder(const NvmImage& image);

  /// Evicts the next victim from `image`; returns the payload bytes it
  /// freed (0 when nothing expendable is left).
  std::size_t evict_next(NvmImage& image);
  /// Removes the entries dropped so far from `image`. The ladder is spent
  /// afterwards; a later eviction needs a new one.
  void compact(NvmImage& image);

 private:
  struct Step {
    std::uint32_t dtc = 0;
    bool frame_only = false;  // strip the freeze frame, keep the entry
  };
  std::vector<Step> steps_;
  std::size_t next_ = 0;
  std::vector<bool> dropped_;  // by DTC index
  std::size_t history_trimmed_ = 0;
};

class NvmStore {
 public:
  struct LoadResult {
    std::optional<NvmImage> image;
    /// True when at least one non-blank bank failed its CRC/format check.
    bool corruption_detected = false;
    std::string detail;
  };

  explicit NvmStore(std::size_t bank_capacity = 8192);

  /// Serialises `image` into the inactive bank and flips the active bank.
  /// Returns false (and leaves the store untouched) if the image does not
  /// fit the bank capacity (counted as an overflow), if the target bank
  /// has worn out its erase-cycle budget, or if an injected write fault
  /// is pending (both counted as write errors), checked in that order.
  /// A rejected commit costs a payload_bytes() walk; only a commit that
  /// succeeds serialises, once, straight into the target bank.
  bool commit(const NvmImage& image);
  /// The same with the size already known: `payload` must equal
  /// payload_bytes(image), so a caller that shrinks an image step by step
  /// can keep a running count. A commit that is about to write re-checks
  /// it and throws std::invalid_argument on a mismatch, before any write.
  bool commit(const NvmImage& image, std::size_t payload);
  /// Whether a payload of `payload` bytes fits a bank, i.e. whether a
  /// commit of it gets past the capacity check.
  [[nodiscard]] bool fits(std::size_t payload) const;

  /// Validates both banks and deserialises the newest valid image.
  [[nodiscard]] LoadResult load() const;

  /// Clears both banks (workshop "clear fault memory").
  void erase();

  // --- wear model --------------------------------------------------------------
  /// Erase cycles each bank survives before writes to it start failing
  /// (0 = unlimited, the default). Every successful commit erases the
  /// target bank once; erase() cycles both banks.
  void set_erase_budget(std::uint32_t cycles) { erase_budget_ = cycles; }
  [[nodiscard]] std::uint32_t erase_budget() const { return erase_budget_; }
  [[nodiscard]] std::uint32_t erase_cycles(std::size_t bank) const {
    return erase_cycles_[bank % 2];
  }
  [[nodiscard]] bool bank_worn(std::size_t bank) const;
  /// Worst-bank erase-cycle share of the budget, 0..1 (0 when unlimited).
  [[nodiscard]] double wear_level() const;

  // --- fault injection surface -------------------------------------------------
  /// Flips one bit of the active bank (models a flash/EEPROM bit error).
  void corrupt_bit(std::size_t bit_index);
  /// XORs one byte of the given bank.
  void corrupt_byte(std::size_t bank, std::size_t offset, std::uint8_t mask);
  /// The next `count` commits fail as write errors (transient flash
  /// faults; distinct from capacity overflows).
  void inject_write_faults(std::uint32_t count) { pending_faults_ += count; }

  // --- introspection -----------------------------------------------------------
  [[nodiscard]] std::size_t bank_capacity() const { return capacity_; }
  [[nodiscard]] std::size_t active_bank() const { return active_; }
  /// Raw content of one bank (a flash dump).
  [[nodiscard]] const std::vector<std::uint8_t>& bank(
      std::size_t index) const {
    return banks_[index % 2];
  }
  [[nodiscard]] std::uint32_t commits() const { return commits_; }
  [[nodiscard]] std::uint32_t overflows() const { return overflows_; }
  [[nodiscard]] std::uint32_t write_errors() const { return write_errors_; }
  /// Journal fill: header + last committed payload over the bank
  /// capacity, 0..1 (0 before the first successful commit).
  [[nodiscard]] double fill_level() const;
  [[nodiscard]] std::size_t last_image_bytes() const {
    return last_image_bytes_;
  }

 private:
  std::size_t capacity_;
  std::vector<std::uint8_t> banks_[2];
  std::size_t active_ = 0;
  std::uint32_t sequence_ = 0;
  std::uint32_t commits_ = 0;
  std::uint32_t overflows_ = 0;
  std::uint32_t write_errors_ = 0;
  std::uint32_t erase_budget_ = 0;
  std::uint32_t erase_cycles_[2] = {0, 0};
  std::uint32_t pending_faults_ = 0;
  std::size_t last_image_bytes_ = 0;
};

}  // namespace easis::fmf
