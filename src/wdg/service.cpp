#include "wdg/service.hpp"

#include <stdexcept>

namespace easis::wdg {

/// Feeds task-termination (job boundary) notifications to the PFC unit,
/// skipping the watchdog's own task.
class WatchdogService::BoundaryObserver : public os::KernelObserver {
 public:
  BoundaryObserver(SoftwareWatchdog& watchdog, TaskId self)
      : watchdog_(watchdog), self_(self) {}

  void on_task_terminated(TaskId task, sim::SimTime) override {
    if (task != self_) watchdog_.notify_task_terminated(task);
  }

 private:
  SoftwareWatchdog& watchdog_;
  TaskId self_;
};

WatchdogService::WatchdogService(os::Kernel& kernel, rte::Rte& rte,
                                 SoftwareWatchdog& watchdog,
                                 CounterId counter, ServiceConfig config)
    : kernel_(kernel), watchdog_(watchdog), config_(config) {
  os::TaskConfig task_config;
  task_config.name = "SWD_MainFunction";
  task_config.priority = config.priority;
  task_config.preemptable = false;  // the check runs atomically
  task_ = kernel_.create_task(task_config);

  kernel_.set_job_factory(task_, [this](os::Job& job) {
    const auto monitored =
        watchdog_.heartbeat_unit().monitored_runnables().size();
    os::Segment& segment = job.emplace_back();
    segment.cost =
        config_.base_cost +
        config_.per_runnable_cost * static_cast<std::int64_t>(monitored);
    if (hang_) {
      // Injected watchdog-task hang: the job never finishes within any
      // realistic horizon, so no main-function cycle (and no HW service
      // call) happens. Only the hardware layer below can catch this.
      segment.cost = sim::Duration::seconds(3600);
      return;
    }
    segment.on_complete = [this] {
      watchdog_.main_function(kernel_.now());
      if (self_supervision_ != nullptr) {
        const std::uint64_t cycle = watchdog_.cycles_run();
        std::uint8_t token = WatchdogSelfSupervision::token_for(cycle);
        if (corrupt_token_) token ^= 0xFF;
        self_supervision_->service(cycle, token, kernel_.now());
      }
    };
  });

  alarm_ = kernel_.create_alarm(
      counter, os::AlarmActionActivateTask{task_}, "SWD_Alarm");

  // Period in counter ticks. The counter tick must divide the check period.
  const auto check = watchdog_.config().check_period.as_micros();
  // We cannot query the counter tick through the public API cheaply;
  // the platform convention is a 1 ms system counter.
  constexpr std::int64_t kTickMicros = 1000;
  if (check % kTickMicros != 0 || check <= 0) {
    throw std::invalid_argument(
        "WatchdogService: check_period must be a positive multiple of 1ms");
  }
  period_ticks_ = static_cast<std::uint64_t>(check / kTickMicros);

  rte.add_heartbeat_listener(
      [this](RunnableId runnable, TaskId task, sim::SimTime now) {
        watchdog_.indicate_aliveness(runnable, task, now);
      });

  observer_ = std::make_unique<BoundaryObserver>(watchdog_, task_);
  kernel_.add_observer(observer_.get());
}

WatchdogService::~WatchdogService() {
  kernel_.remove_observer(observer_.get());
}

void WatchdogService::arm() {
  kernel_.set_rel_alarm(alarm_, period_ticks_, period_ticks_);
}

}  // namespace easis::wdg
