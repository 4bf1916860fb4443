// Environment Supervision Unit (watchdogd's tempmon.c/fsmon.c family).
//
// Completes the monitor set of the Resource Supervision Unit with the two
// environmental failure classes that dominate field returns: thermal
// stress and flash/NVM wear. Like the RSU, every supervised channel
// registers as a virtual runnable (all heartbeat/flow monitoring off) so
// the TSI keeps an error-indication vector for it and the FMF treats its
// faults exactly like task faults.
//
// Thermal channel — a multi-stage graceful-derating ladder:
//
//   normal --warn_c--> warn      one kThermal report (warn DTC), nothing
//                                else changes
//        --derate_c--> derate    the derate hook fires: the node parks the
//                                QM applications and stretches the HBM
//                                periods of the safety runnables (slower
//                                clock under thermal stress must not look
//                                like dead runnables)
//      --shutdown_c--> shutdown  the shutdown hook fires: controlled
//                                shutdown into the persistent safe state
//
//   Downward transitions apply `hysteresis_c` so a reading jittering on a
//   boundary does not flap the ladder; leaving derate fires the exit hook
//   (un-park, restore hypotheses). Stage *transitions* report once — the
//   treatment is the hook, and a per-cycle report stream would fight the
//   FMF's own escalation ladder.
//
//   Plausibility: a reading outside [min_plausible_c, max_plausible_c] or
//   frozen for `stuck_cycles` cycles (a live sensor always moves by the
//   model's dither) marks the sensor invalid. Invalid cycles report
//   per-cycle (TSI escalation -> FMF policy) until the unit forces a
//   *precautionary* derate after `sensor_invalid_derate_cycles` — an ECU
//   that cannot trust its temperature sensor must assume it is hot.
//   Keep sensor_invalid_derate_cycles >= the TSI environment threshold so
//   the FMF's policy treatment lands before the precautionary derate and
//   the two paths do not double-treat.
//
// Filesystem/NVM channel — journal fill, write failures, erase wear:
//
//   - fill watermark: the committed image stayed at/above the watermark
//     share of the bank for `window_cycles` consecutive cycles (reported
//     per cycle while it holds, like the RSU's watermark rule);
//   - write errors: the backing store failed writes since the last cycle
//     (wear-out or transient flash faults) — immediate, no debounce;
//   - overflow: a commit did not fit the bank — immediate (the FMF's
//     evict-by-priority degradation is the treatment);
//   - wear watermark: the worst bank's erase cycles crossed the watermark
//     share of the erase budget (reported per cycle while it holds).
//
// The unit reads all levels through probes, so it has no dependency on the
// fmf layer; the node assembly wires the probes to its NvmStore.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rte/signal_bus.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"
#include "wdg/watchdog.hpp"

namespace easis::wdg {

/// Stages of the thermal graceful-derating ladder, in escalation order.
enum class ThermalStage : std::uint8_t {
  kNormal = 0,
  kWarn = 1,
  kDerate = 2,
  kShutdown = 3,
};

[[nodiscard]] constexpr std::string_view to_string(ThermalStage s) {
  switch (s) {
    case ThermalStage::kNormal: return "normal";
    case ThermalStage::kWarn: return "warn";
    case ThermalStage::kDerate: return "derate";
    case ThermalStage::kShutdown: return "shutdown";
  }
  return "?";
}

struct ThermalLimits {
  double warn_c = 85.0;
  double derate_c = 100.0;
  double shutdown_c = 115.0;
  /// Downward transitions need the reading this far below the boundary.
  double hysteresis_c = 5.0;
  /// Plausibility band of the sensor; readings outside are invalid.
  double min_plausible_c = -45.0;
  double max_plausible_c = 150.0;
  /// A reading frozen (|delta| <= stuck_epsilon_c) for this many
  /// consecutive cycles marks the sensor stuck. A live sensor dithers.
  std::uint32_t stuck_cycles = 12;
  double stuck_epsilon_c = 0.01;
  /// Invalid-sensor cycles before the precautionary derate engages.
  std::uint32_t sensor_invalid_derate_cycles = 4;
};

/// One supervised temperature channel bound to the task/application whose
/// TSI vector accounts its faults.
struct ThermalChannel {
  RunnableId id;
  TaskId task;
  ApplicationId application;
  std::string name;
  ThermalLimits limits;
  /// Sensor reading in degrees C (wired to sim::ThermalModel::sensor_c).
  std::function<double()> probe;
};

struct FilesystemLimits {
  /// Journal fill share of the bank capacity; zero disables.
  double fill_watermark = 0.8;
  /// Consecutive cycles at/above the fill watermark before the first
  /// report (transgression window).
  std::uint32_t window_cycles = 3;
  /// Worst-bank erase-cycle share of the erase budget; zero disables.
  double wear_watermark = 0.8;
};

/// One supervised filesystem/NVM journal. All probes are cumulative
/// counters except the two levels (0..1 shares).
struct FilesystemChannel {
  RunnableId id;
  TaskId task;
  ApplicationId application;
  std::string name;
  FilesystemLimits limits;
  std::function<double()> fill_probe;
  std::function<double()> wear_probe;
  std::function<std::uint64_t()> write_error_probe;
  std::function<std::uint64_t()> overflow_probe;
};

class EnvironmentSupervisionUnit {
 public:
  EnvironmentSupervisionUnit(SoftwareWatchdog& watchdog,
                             rte::SignalBus& bus);

  /// Registers a supervised channel as a virtual runnable.
  void add_thermal(const ThermalChannel& channel);
  void add_filesystem(const FilesystemChannel& channel);

  /// Derate-stage actuation of the graceful ladder: `enter` parks the QM
  /// applications / stretches HBM periods, `exit` restores them when the
  /// temperature recovers below the hysteresis band.
  void set_derate_hooks(std::function<void(sim::SimTime)> enter,
                        std::function<void(sim::SimTime)> exit = nullptr) {
    derate_enter_ = std::move(enter);
    derate_exit_ = std::move(exit);
  }
  /// Controlled-shutdown actuation (wired to the FMF's persistent safe
  /// state by the node assembly).
  void set_shutdown_hook(std::function<void(sim::SimTime)> hook) {
    shutdown_ = std::move(hook);
  }

  /// Periodic supervision; call every watchdog check period.
  void cycle(sim::SimTime now);

  // --- introspection ------------------------------------------------------
  /// Ladder stage of the first (primary) thermal channel.
  [[nodiscard]] ThermalStage stage() const;
  [[nodiscard]] ThermalStage stage_of(RunnableId id) const;
  /// Last sensor reading of the primary thermal channel (degrees C).
  [[nodiscard]] double temperature_c() const;
  /// All stage transitions of the primary channel so far, '>'-separated
  /// (e.g. "normal>warn>derate>shutdown"): the observable ladder trace.
  [[nodiscard]] const std::string& stage_trace() const { return trace_; }
  [[nodiscard]] bool sensor_invalid() const;
  /// Last fill/wear level of the first filesystem channel, percent.
  [[nodiscard]] std::uint64_t flash_fill_pct() const;
  [[nodiscard]] std::uint64_t flash_wear_pct() const;
  [[nodiscard]] std::uint64_t reports_for(RunnableId id) const;
  [[nodiscard]] std::uint64_t reports_emitted() const { return reports_; }
  [[nodiscard]] std::size_t channel_count() const {
    return thermal_order_.size() + fs_order_.size();
  }
  /// Per-channel state, one line each (flight-note material).
  [[nodiscard]] std::string format_snapshot() const;

 private:
  struct ThermalState {
    ThermalChannel config;
    rte::SignalHandle temp_signal;   // "env.<name>.temp_c"
    rte::SignalHandle stage_signal;  // "env.<name>.stage"
    ThermalStage stage = ThermalStage::kNormal;
    double last_c = 0.0;
    bool have_last = false;
    std::uint32_t frozen_cycles = 0;
    std::uint32_t invalid_cycles = 0;
    bool invalid = false;
    bool precautionary_derate = false;
    std::uint64_t reports = 0;
  };
  struct FilesystemState {
    FilesystemChannel config;
    rte::SignalHandle fill_signal;  // "env.<name>.fill.level"
    rte::SignalHandle wear_signal;  // "env.<name>.wear.level"
    std::uint32_t above_watermark = 0;
    std::uint64_t last_write_errors = 0;
    std::uint64_t last_overflows = 0;
    std::uint64_t last_fill_pct = 0;
    std::uint64_t last_wear_pct = 0;
    std::uint64_t reports = 0;
  };

  SoftwareWatchdog& watchdog_;
  rte::SignalBus& bus_;
  std::unordered_map<RunnableId, ThermalState> thermal_;
  std::unordered_map<RunnableId, FilesystemState> filesystem_;
  std::vector<RunnableId> thermal_order_;
  std::vector<RunnableId> fs_order_;
  std::function<void(sim::SimTime)> derate_enter_;
  std::function<void(sim::SimTime)> derate_exit_;
  std::function<void(sim::SimTime)> shutdown_;
  std::string trace_ = "normal";
  std::uint64_t reports_ = 0;

  void register_virtual(RunnableId id, TaskId task, ApplicationId app,
                        const std::string& name);
  void cycle_thermal(ThermalState& state, sim::SimTime now);
  void cycle_filesystem(FilesystemState& state, sim::SimTime now);
  void enter_stage(ThermalState& state, ThermalStage next, sim::SimTime now);
  [[nodiscard]] ThermalStage stage_for(const ThermalState& state,
                                       double reading) const;
  void report(RunnableId id, TaskId task, ApplicationId app, ErrorType type,
              sim::SimTime now, std::string detail);
};

}  // namespace easis::wdg
