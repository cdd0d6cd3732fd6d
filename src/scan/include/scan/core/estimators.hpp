#pragma once

// The queue-wait half of the scheduler's time estimate (§III-A-2, Eq. 2):
//
//   ETT(j) = elapsed_j + sum_{i >= S_j} (EQT_i + EET_i(j))
//
// EQT_i — estimated queueing time for stage i — is maintained online as an
// exponentially weighted moving average of observed waits, so the estimate
// tracks load changes.
//
// EET_i — estimated execution time of stage i — is "a linear function of
// the number of job input records derived from profiling data": the engine
// evaluates the (possibly regression-fitted) PipelineModel at the job's
// planned thread count once, at admission, and the policy sums the cached
// values (SchedulingPolicy::QueueDelayCost). The from-the-model reference
// of the whole sum lives in scan_testkit (testkit/eq2_reference.hpp).

#include <vector>

#include "scan/common/stats.hpp"
#include "scan/common/units.hpp"

namespace scan::core {

/// Online queue-wait estimator, one EWMA per pipeline stage.
class QueueTimeEstimator {
 public:
  /// alpha: EWMA weight of the newest observation.
  explicit QueueTimeEstimator(std::size_t stages, double alpha = 0.2);

  /// Records an observed wait for stage `i`.
  void Observe(std::size_t stage, SimTime wait);

  /// EQT_i; 0 until the first observation.
  [[nodiscard]] SimTime Estimate(std::size_t stage) const;

  [[nodiscard]] std::size_t stage_count() const { return ewmas_.size(); }

 private:
  std::vector<Ewma> ewmas_;
};

}  // namespace scan::core
