#include "wdg/tsi.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "profile/profiler.hpp"
#include "telemetry/event_bus.hpp"

namespace easis::wdg {

TaskStateIndicationUnit::TaskStateIndicationUnit(
    Thresholds thresholds, std::uint32_t ecu_faulty_task_limit)
    : thresholds_(thresholds), ecu_faulty_task_limit_(ecu_faulty_task_limit) {
  if (ecu_faulty_task_limit_ == 0) {
    throw std::invalid_argument("TSI: ecu_faulty_task_limit must be >= 1");
  }
}

void TaskStateIndicationUnit::add_runnable(RunnableId runnable, TaskId task,
                                           ApplicationId application) {
  if (elements_.contains(runnable)) {
    throw std::logic_error("TSI: runnable already registered");
  }
  elements_.emplace(runnable, Element{task, application, {}});
  order_.push_back(runnable);
  task_health_.try_emplace(task, Health::kOk);
  app_health_.try_emplace(application, Health::kOk);
}

void TaskStateIndicationUnit::report_error(RunnableId runnable, ErrorType type,
                                           sim::SimTime now) {
  EASIS_PROFILE_SPAN("wdg.tsi_report");
  auto it = elements_.find(runnable);
  if (it == elements_.end()) return;
  const std::uint32_t count =
      ++it->second.counts[static_cast<std::size_t>(type)];
  const std::uint32_t threshold =
      thresholds_.by_type[static_cast<std::size_t>(type)];
  if (threshold > 0 && count == threshold && telemetry::enabled()) {
    telemetry::Event event;
    event.time = now;
    event.component = telemetry::Component::kTsi;
    event.kind = telemetry::EventKind::kThresholdTrip;
    event.runnable = runnable;
    event.task = it->second.task;
    event.application = it->second.application;
    event.detail = std::string(to_string(type)) + " count reached " +
                   std::to_string(threshold);
    telemetry::emit(std::move(event));
  }
  derive_states(now);
}

void TaskStateIndicationUnit::derive_states(sim::SimTime now) {
  // A state callback may re-enter (a treatment clears the task it was
  // told about), so each nesting level has its own scratch. Assigning
  // the health maps into it reuses its nodes and keeps their iteration
  // order, which is the order transitions are emitted in.
  if (derive_depth_ == scratch_.size()) scratch_.emplace_back();
  DeriveScratch& scratch = scratch_[derive_depth_];
  ++derive_depth_;
  struct DepthGuard {
    std::size_t& depth;
    ~DepthGuard() { --depth; }
  } guard{derive_depth_};

  // Task states from error indication vectors.
  std::unordered_map<TaskId, Health>& new_task = scratch.task;
  new_task = task_health_;
  for (auto& [task, health] : new_task) health = Health::kOk;
  std::unordered_map<ApplicationId, Health>& new_app = scratch.app;
  new_app = app_health_;
  for (auto& [app, health] : new_app) health = Health::kOk;

  for (RunnableId id : order_) {
    const Element& e = elements_.at(id);
    for (std::size_t t = 0; t < kErrorTypeCount; ++t) {
      // A zero threshold disables the check for that error class.
      if (thresholds_.by_type[t] == 0) continue;
      if (e.counts[t] >= thresholds_.by_type[t]) {
        new_task[e.task] = Health::kFaulty;
        new_app[e.application] = Health::kFaulty;
      }
    }
  }

  std::uint32_t faulty_count = 0;
  for (const auto& [task, health] : new_task) {
    if (health == Health::kFaulty) ++faulty_count;
  }
  const Health new_ecu = faulty_count >= ecu_faulty_task_limit_
                             ? Health::kFaulty
                             : Health::kOk;

  // Emit transitions after all states are computed, tasks first.
  for (const auto& [task, health] : new_task) {
    if (task_health_.at(task) != health) {
      task_health_[task] = health;
      if (telemetry::enabled()) {
        telemetry::Event event;
        event.time = now;
        event.component = telemetry::Component::kTsi;
        event.kind = telemetry::EventKind::kTaskStateChange;
        event.task = task;
        event.detail = to_string(health);
        telemetry::emit(std::move(event));
      }
      if (task_cb_) task_cb_(task, health, now);
    }
  }
  for (const auto& [app, health] : new_app) {
    if (app_health_.at(app) != health) {
      app_health_[app] = health;
      if (telemetry::enabled()) {
        telemetry::Event event;
        event.time = now;
        event.component = telemetry::Component::kTsi;
        event.kind = telemetry::EventKind::kAppStateChange;
        event.application = app;
        event.detail = to_string(health);
        telemetry::emit(std::move(event));
      }
      if (app_cb_) app_cb_(app, health, now);
    }
  }
  if (new_ecu != ecu_health_) {
    ecu_health_ = new_ecu;
    if (telemetry::enabled()) {
      telemetry::Event event;
      event.time = now;
      event.component = telemetry::Component::kTsi;
      event.kind = telemetry::EventKind::kEcuStateChange;
      event.detail = to_string(new_ecu);
      telemetry::emit(std::move(event));
    }
    if (ecu_cb_) ecu_cb_(new_ecu, now);
  }
}

Health TaskStateIndicationUnit::task_health(TaskId task) const {
  auto it = task_health_.find(task);
  return it == task_health_.end() ? Health::kOk : it->second;
}

Health TaskStateIndicationUnit::application_health(ApplicationId app) const {
  auto it = app_health_.find(app);
  return it == app_health_.end() ? Health::kOk : it->second;
}

std::uint32_t TaskStateIndicationUnit::error_count(RunnableId runnable,
                                                   ErrorType type) const {
  auto it = elements_.find(runnable);
  if (it == elements_.end()) return 0;
  return it->second.counts[static_cast<std::size_t>(type)];
}

SupervisionReport TaskStateIndicationUnit::report(RunnableId runnable) const {
  auto it = elements_.find(runnable);
  if (it == elements_.end()) {
    throw std::out_of_range("TSI: unknown runnable");
  }
  const Element& e = it->second;
  SupervisionReport r;
  r.runnable = runnable;
  r.task = e.task;
  r.application = e.application;
  r.aliveness_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kAliveness)];
  r.arrival_rate_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kArrivalRate)];
  r.program_flow_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kProgramFlow)];
  r.accumulated_aliveness_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kAccumulatedAliveness)];
  r.deadline_errors = e.counts[static_cast<std::size_t>(ErrorType::kDeadline)];
  r.communication_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kCommunication)];
  r.nvm_corruption_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kNvmCorruption)];
  r.memory_budget_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kMemoryBudget)];
  r.handle_exhaustion_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kHandleExhaustion)];
  r.queue_overflow_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kQueueOverflow)];
  r.cpu_overload_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kCpuOverload)];
  r.thermal_errors = e.counts[static_cast<std::size_t>(ErrorType::kThermal)];
  r.filesystem_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kFilesystem)];
  r.check_rule_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kCheckRule)];
  r.power_mode_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kPowerMode)];
  return r;
}

std::vector<TaskId> TaskStateIndicationUnit::faulty_tasks() const {
  std::vector<TaskId> out;
  for (const auto& [task, health] : task_health_) {
    if (health == Health::kFaulty) out.push_back(task);
  }
  return out;
}

void TaskStateIndicationUnit::set_task_state_callback(TaskStateCallback cb) {
  task_cb_ = std::move(cb);
}
void TaskStateIndicationUnit::set_application_state_callback(
    ApplicationStateCallback cb) {
  app_cb_ = std::move(cb);
}
void TaskStateIndicationUnit::set_ecu_state_callback(EcuStateCallback cb) {
  ecu_cb_ = std::move(cb);
}

void TaskStateIndicationUnit::clear_task(TaskId task, sim::SimTime now) {
  for (RunnableId id : order_) {
    Element& e = elements_.at(id);
    if (e.task == task) e.counts.fill(0);
  }
  derive_states(now);
}

void TaskStateIndicationUnit::reset(sim::SimTime now) {
  for (RunnableId id : order_) elements_.at(id).counts.fill(0);
  derive_states(now);
}

}  // namespace easis::wdg
