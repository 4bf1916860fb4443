// Runtime environment: component model, mapping and glue-code generation.
//
// Mirrors the paper's AUTOSAR/EASIS view: application software components
// consist of runnables; runnables from different applications can be mapped
// onto the same task; the RTE generates the glue code that reports each
// runnable's aliveness indication (heartbeat) to the Software Watchdog.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "os/kernel.hpp"
#include "rte/runnable.hpp"
#include "util/ids.hpp"

namespace easis::rte {

/// Receives the aliveness indication each time a runnable completes.
/// The Software Watchdog's first interface (L1 components -> watchdog).
using HeartbeatListener =
    std::function<void(RunnableId, TaskId, sim::SimTime)>;

/// Rewrites the runnable sequence of one task job (error injection:
/// invalid execution branches, skipped or swapped runnables).
using SequenceTransformer =
    std::function<std::vector<RunnableId>(std::vector<RunnableId>)>;

class Rte {
 public:
  explicit Rte(os::Kernel& kernel);
  Rte(const Rte&) = delete;
  Rte& operator=(const Rte&) = delete;

  // --- model registration ---------------------------------------------------
  ApplicationId register_application(std::string name);
  ComponentId register_component(ApplicationId app, std::string name);
  RunnableId register_runnable(ComponentId component, RunnableSpec spec);

  /// Appends the runnable to `task`'s execution sequence. Order of calls
  /// defines the in-job execution order.
  void map_runnable(RunnableId runnable, TaskId task);

  /// Event-driven (extended) task execution: each job first waits for any
  /// event in `wait_before`; with `chain_self` the task re-activates itself
  /// after the sequence, forming a persistent event server.
  struct TaskExecutionConfig {
    os::EventMask wait_before = 0;
    bool chain_self = false;
  };
  void configure_task_execution(TaskId task, TaskExecutionConfig config);

  /// Installs job factories for all mapped tasks. Call once after mapping.
  void finalize();
  [[nodiscard]] bool finalized() const { return finalized_; }

  // --- introspection -----------------------------------------------------------
  [[nodiscard]] const RunnableSpec& runnable(RunnableId id) const;
  [[nodiscard]] const std::string& runnable_name(RunnableId id) const;
  [[nodiscard]] TaskId task_of(RunnableId id) const;
  [[nodiscard]] ComponentId component_of(RunnableId id) const;
  [[nodiscard]] ApplicationId application_of(RunnableId id) const;
  [[nodiscard]] const std::string& application_name(ApplicationId id) const;
  [[nodiscard]] const std::vector<RunnableId>& runnables_on_task(
      TaskId task) const;
  [[nodiscard]] std::vector<RunnableId> runnables_of_application(
      ApplicationId app) const;
  /// Tasks hosting at least one runnable of `app`.
  [[nodiscard]] std::vector<TaskId> tasks_of_application(
      ApplicationId app) const;
  [[nodiscard]] std::size_t runnable_count() const { return runnables_.size(); }
  [[nodiscard]] std::size_t application_count() const {
    return applications_.size();
  }
  /// Completed executions of the runnable (body invocations, including
  /// skipped bodies) since construction.
  [[nodiscard]] std::uint64_t executions(RunnableId id) const;

  // --- heartbeat glue -------------------------------------------------------------
  void add_heartbeat_listener(HeartbeatListener listener);

  // --- application lifecycle ---------------------------------------------------------
  /// Disabled applications drop out of future jobs (termination treatment).
  void set_application_enabled(ApplicationId app, bool enabled);
  [[nodiscard]] bool application_enabled(ApplicationId app) const;
  /// Restart treatment: kills the application's tasks' current jobs and
  /// bumps the restart counter; periodic alarms re-activate the tasks.
  void restart_application(ApplicationId app);
  [[nodiscard]] std::uint32_t restart_count(ApplicationId app) const;

  // --- injection controls ---------------------------------------------------------
  [[nodiscard]] RunnableControl& control(RunnableId id);
  void set_sequence_transformer(TaskId task, SequenceTransformer transformer);
  void clear_sequence_transformer(TaskId task);

  [[nodiscard]] os::Kernel& kernel() { return kernel_; }

 private:
  struct RunnableEntry {
    RunnableSpec spec;
    RunnableControl control;
    ComponentId component;
    TaskId task;
    std::uint64_t executions = 0;
  };
  struct ComponentEntry {
    std::string name;
    ApplicationId application;
    std::vector<RunnableId> runnables;
  };
  struct ApplicationEntry {
    std::string name;
    std::vector<ComponentId> components;
    bool enabled = true;
    std::uint32_t restarts = 0;
  };

  os::Kernel& kernel_;
  std::vector<RunnableEntry> runnables_;
  std::vector<ComponentEntry> components_;
  std::vector<ApplicationEntry> applications_;
  std::unordered_map<TaskId, std::vector<RunnableId>> task_sequences_;
  std::unordered_map<TaskId, SequenceTransformer> transformers_;
  std::unordered_map<TaskId, TaskExecutionConfig> execution_configs_;
  std::vector<HeartbeatListener> listeners_;
  bool finalized_ = false;

  /// Scratch for build_job()'s runnable sequence (reused capacity).
  std::vector<RunnableId> sequence_scratch_;

  /// The kernel's JobFactory for `task`: appends one segment per runnable.
  void build_job(TaskId task, os::Job& job);
  void emit_heartbeat(RunnableId runnable, TaskId task);
};

}  // namespace easis::rte
