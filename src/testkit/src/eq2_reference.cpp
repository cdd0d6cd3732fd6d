#include "scan/testkit/eq2_reference.hpp"

#include <stdexcept>

namespace scan::testkit {

SimTime EstimateRemainingTime(const gatk::PipelineModel& model,
                              const core::QueueTimeEstimator& queues,
                              DataSize job_size, std::size_t current_stage,
                              std::span<const int> thread_plan) {
  if (thread_plan.size() != model.stage_count()) {
    throw std::invalid_argument("EstimateRemainingTime: plan size mismatch");
  }
  SimTime total{0.0};
  for (std::size_t i = current_stage; i < model.stage_count(); ++i) {
    total += queues.Estimate(i);
    total += model.ThreadedTime(i, thread_plan[i], job_size);
  }
  return total;
}

SimTime EstimateTotalTime(const gatk::PipelineModel& model,
                          const core::QueueTimeEstimator& queues,
                          DataSize job_size, SimTime elapsed,
                          std::size_t current_stage,
                          std::span<const int> thread_plan) {
  return elapsed + EstimateRemainingTime(model, queues, job_size,
                                         current_stage, thread_plan);
}

}  // namespace scan::testkit
