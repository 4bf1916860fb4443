// Task State Indication Unit (paper §3.2.3).
//
// Accumulates per-runnable error reports in an error indication vector per
// task. When one element reaches its threshold the whole task is considered
// faulty; task states roll up to application states and the global ECU
// state using the runnable->task->application mapping information.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"
#include "util/ids.hpp"
#include "wdg/config.hpp"
#include "wdg/types.hpp"

namespace easis::wdg {

class TaskStateIndicationUnit {
 public:
  struct Thresholds {
    /// Per error class; a zero threshold disables that check entirely.
    std::array<std::uint32_t, kErrorTypeCount> by_type{
        3, 3, 3, 3, 3, 3, 1, 3, 3, 3, 3, 3, 3, 3, 3};
    [[nodiscard]] std::uint32_t of(ErrorType t) const {
      return by_type[static_cast<std::size_t>(t)];
    }
  };

  using TaskStateCallback =
      std::function<void(TaskId, Health, sim::SimTime)>;
  using ApplicationStateCallback =
      std::function<void(ApplicationId, Health, sim::SimTime)>;
  using EcuStateCallback = std::function<void(Health, sim::SimTime)>;

  explicit TaskStateIndicationUnit(Thresholds thresholds,
                                   std::uint32_t ecu_faulty_task_limit);

  /// Registers a monitored runnable with its mapping info.
  void add_runnable(RunnableId runnable, TaskId task,
                    ApplicationId application);

  /// Records one error-indication-vector increment and re-derives states.
  void report_error(RunnableId runnable, ErrorType type, sim::SimTime now);

  // --- state queries -----------------------------------------------------------
  [[nodiscard]] Health task_health(TaskId task) const;
  [[nodiscard]] Health application_health(ApplicationId app) const;
  [[nodiscard]] Health ecu_health() const { return ecu_health_; }
  [[nodiscard]] std::uint32_t error_count(RunnableId runnable,
                                          ErrorType type) const;
  [[nodiscard]] SupervisionReport report(RunnableId runnable) const;
  [[nodiscard]] std::vector<TaskId> faulty_tasks() const;

  // --- state transitions out --------------------------------------------------
  void set_task_state_callback(TaskStateCallback cb);
  void set_application_state_callback(ApplicationStateCallback cb);
  void set_ecu_state_callback(EcuStateCallback cb);

  // --- fault-treatment hooks ----------------------------------------------------
  /// Clears the error vector elements of one task (after restart/treatment).
  void clear_task(TaskId task, sim::SimTime now);
  /// Clears everything (ECU software reset).
  void reset(sim::SimTime now);

 private:
  struct Element {
    TaskId task;
    ApplicationId application;
    std::array<std::uint32_t, kErrorTypeCount> counts{};
  };

  Thresholds thresholds_;
  std::uint32_t ecu_faulty_task_limit_;
  std::unordered_map<RunnableId, Element> elements_;
  std::vector<RunnableId> order_;
  std::unordered_map<TaskId, Health> task_health_;
  std::unordered_map<ApplicationId, Health> app_health_;
  Health ecu_health_ = Health::kOk;

  TaskStateCallback task_cb_;
  ApplicationStateCallback app_cb_;
  EcuStateCallback ecu_cb_;

  /// derive_states() working copies, one per nesting level (a deque, so
  /// an outer level's scratch stays put while an inner one is added).
  struct DeriveScratch {
    std::unordered_map<TaskId, Health> task;
    std::unordered_map<ApplicationId, Health> app;
  };
  std::deque<DeriveScratch> scratch_;
  std::size_t derive_depth_ = 0;

  void derive_states(sim::SimTime now);
};

}  // namespace easis::wdg
