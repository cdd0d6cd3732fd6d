#pragma once

// Reference Eq. 2 (§III-A-2): the estimated total time of a job evaluated
// straight from the pipeline model, the way the paper states it:
//
//   ETT(j) = elapsed_j + sum_{i >= S_j} (EQT_i + EET_i(j))
//
// The engine caches each job's EET_i at admission and
// core::SchedulingPolicy::QueueDelayCost sums the cache; this is the
// oracle the delay-cost differential test compares that path against,
// bit for bit. Terms are added in the same interleaved order (EQT_i, then
// EET_i, stage by stage), so equal inputs give equal bits.

#include <cstddef>
#include <span>

#include "scan/common/units.hpp"
#include "scan/core/estimators.hpp"
#include "scan/gatk/pipeline_model.hpp"

namespace scan::testkit {

/// Remaining time only: queue + execution for stages >= current_stage,
/// EET_i = model.ThreadedTime(i, thread_plan[i], job_size). Throws
/// std::invalid_argument unless the plan covers every model stage.
[[nodiscard]] SimTime EstimateRemainingTime(
    const gatk::PipelineModel& model, const core::QueueTimeEstimator& queues,
    DataSize job_size, std::size_t current_stage,
    std::span<const int> thread_plan);

/// Estimated Total Time of a job: `elapsed` (time since the job entered
/// the system) plus EstimateRemainingTime.
[[nodiscard]] SimTime EstimateTotalTime(const gatk::PipelineModel& model,
                                        const core::QueueTimeEstimator& queues,
                                        DataSize job_size, SimTime elapsed,
                                        std::size_t current_stage,
                                        std::span<const int> thread_plan);

}  // namespace scan::testkit
