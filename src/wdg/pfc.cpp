#include "wdg/pfc.hpp"

#include <stdexcept>

namespace easis::wdg {

void ProgramFlowCheckingUnit::add_monitored(RunnableId runnable, TaskId task) {
  if (monitored_.contains(runnable)) {
    throw std::logic_error("PFC: runnable already monitored");
  }
  monitored_.emplace(runnable, task);
}

bool ProgramFlowCheckingUnit::monitors(RunnableId runnable) const {
  return monitored_.contains(runnable);
}

void ProgramFlowCheckingUnit::add_edge(RunnableId pred, RunnableId succ) {
  successors_[pred].insert(succ);
}

void ProgramFlowCheckingUnit::add_entry_point(RunnableId runnable) {
  auto it = monitored_.find(runnable);
  if (it == monitored_.end()) {
    throw std::logic_error("PFC: entry point must be a monitored runnable");
  }
  entry_points_[it->second].insert(runnable);
}

void ProgramFlowCheckingUnit::on_execution(RunnableId runnable, TaskId task,
                                           sim::SimTime now,
                                           const ErrorCallback& on_error) {
  auto it = monitored_.find(runnable);
  if (it == monitored_.end()) return;
  ++checks_;

  auto ctx = contexts_.find(task);
  const RunnableId predecessor =
      ctx == contexts_.end() ? RunnableId{} : ctx->second;

  bool ok = false;
  if (!predecessor.valid()) {
    // First monitored runnable of this job: must be a permitted entry of
    // this task. Tasks without configured entry points accept any start.
    auto entries = entry_points_.find(task);
    ok = entries == entry_points_.end() || entries->second.contains(runnable);
  } else {
    auto succ = successors_.find(predecessor);
    ok = succ != successors_.end() && succ->second.contains(runnable);
  }

  if (!ok && on_error) on_error(runnable, predecessor, task, now);
  contexts_[task] = runnable;
}

void ProgramFlowCheckingUnit::task_boundary(TaskId task) {
  // Clear, not erase: the task's node is reused by its next job.
  if (auto it = contexts_.find(task); it != contexts_.end()) {
    it->second = RunnableId{};
  }
}

void ProgramFlowCheckingUnit::reset() { contexts_.clear(); }

bool ProgramFlowCheckingUnit::edge_allowed(RunnableId pred,
                                           RunnableId succ) const {
  auto it = successors_.find(pred);
  return it != successors_.end() && it->second.contains(succ);
}

bool ProgramFlowCheckingUnit::is_entry_point(RunnableId runnable) const {
  auto it = monitored_.find(runnable);
  if (it == monitored_.end()) return false;
  auto entries = entry_points_.find(it->second);
  return entries != entry_points_.end() &&
         entries->second.contains(runnable);
}

std::size_t ProgramFlowCheckingUnit::edge_count() const {
  std::size_t n = 0;
  for (const auto& [_, set] : successors_) n += set.size();
  return n;
}

std::vector<RunnableId> ProgramFlowCheckingUnit::monitored_runnables() const {
  std::vector<RunnableId> out;
  out.reserve(monitored_.size());
  for (const auto& [runnable, _] : monitored_) out.push_back(runnable);
  return out;
}

std::vector<RunnableId> ProgramFlowCheckingUnit::successors_of(
    RunnableId pred) const {
  auto it = successors_.find(pred);
  if (it == successors_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::vector<RunnableId> ProgramFlowCheckingUnit::entry_points_of(
    TaskId task) const {
  auto it = entry_points_.find(task);
  if (it == entry_points_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

TaskId ProgramFlowCheckingUnit::task_of(RunnableId runnable) const {
  auto it = monitored_.find(runnable);
  return it == monitored_.end() ? TaskId{} : it->second;
}

RunnableId ProgramFlowCheckingUnit::flow_context(TaskId task) const {
  auto it = contexts_.find(task);
  return it == contexts_.end() ? RunnableId{} : it->second;
}

}  // namespace easis::wdg
