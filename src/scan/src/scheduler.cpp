#include "scan/core/scheduler.hpp"

#include <stdexcept>

namespace scan::core {

Scheduler::Scheduler(const SimulationConfig& config, gatk::PipelineModel model,
                     std::uint64_t seed, SchedulerOptions options)
    : core_(config, std::move(model), seed, std::move(options), *this) {}

RunMetrics Scheduler::Run() {
  if (ran_) throw std::logic_error("Scheduler::Run: already ran");
  ran_ = true;
  core_.Start();
  core_.calendar().RunUntil(core_.config().duration);
  return core_.Finish();
}

void Scheduler::StartExecution(const Assignment& assignment) {
  core_.calendar().ScheduleAt(
      assignment.end_at,
      [this, end = assignment.end](sim::Simulator&) { core_.EndTask(end); });
}

}  // namespace scan::core
