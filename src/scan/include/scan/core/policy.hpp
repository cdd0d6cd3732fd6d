#pragma once

// The scheduler's decision core, held by the EngineCore that both the
// discrete-event Scheduler and the live runtime drive.
//
// The policy owns everything that decides *what* to run where — the
// per-job thread plan (allocation algorithms), the predictive hire-or-wait
// inequality (Eq. 1 delay cost vs. hire cost), the online queue-wait
// estimator feeding Eq. 2, and adaptive replanning — but none of the
// execution mechanics (queues, worker books, the event loop; see
// engine_core.hpp). Callers describe their queue state through
// QueuedJobSnapshot spans, so the policy never touches the core's
// containers.
//
// Determinism contract: the policy draws no random numbers and is driven
// in event order by its caller, so equal call sequences produce
// bit-identical decisions.

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "scan/cloud/cloud_manager.hpp"
#include "scan/core/allocation.hpp"
#include "scan/core/config.hpp"
#include "scan/core/estimators.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/workload/reward.hpp"

namespace scan::core {

/// The priced inputs of one predictive hire-or-wait evaluation, exposed so
/// the scan_obs decision audit can record *why* the inequality answered
/// the way it did. Cost fields stay NaN when the evaluation short-circuits
/// before pricing (no busy worker, or the head frees immediately).
struct HireEvaluation {
  double delay_cost = std::numeric_limits<double>::quiet_NaN();
  double hire_cost = std::numeric_limits<double>::quiet_NaN();
  double next_free_delay_tu = std::numeric_limits<double>::quiet_NaN();
  /// Expected-rework inflation multiplied into the hire cost's execution
  /// term (fault::ExpectedReworkFactor); exactly 1.0 when crash pricing
  /// is inactive, so legacy configs price bit-identically.
  double rework_factor = 1.0;
  bool hire = false;
};

/// One queued job as the decision core sees it: enough to price the delay
/// cost of holding the queue (Eq. 1) without exposing driver internals.
struct QueuedJobSnapshot {
  DataSize size{0.0};
  /// Time since the job entered the system (now - arrival).
  SimTime elapsed{0.0};
  /// Stage the job is queued for (0-based).
  std::size_t stage = 0;
  /// EET_i (Eq. 2) per pipeline stage: the modeled execution time at the
  /// job's planned thread count, cached once when the job was admitted.
  std::span<const double> stage_exec_tu;
};

/// The shared decision core. Construct once per run; drive in event order.
class SchedulingPolicy {
 public:
  /// `model` is the *unscaled* pipeline model; the policy applies
  /// config.stage_time_scale itself and exposes the scaled model.
  SchedulingPolicy(const SimulationConfig& config,
                   const gatk::PipelineModel& model,
                   std::optional<ThreadPlan> forced_plan);

  /// The scaled pipeline model every execution-time estimate uses.
  [[nodiscard]] const gatk::PipelineModel& model() const { return model_; }
  [[nodiscard]] const workload::RewardFunction& reward() const {
    return reward_;
  }

  /// The thread plan the allocation algorithm produces for a job of the
  /// given size at the current knowledge state.
  [[nodiscard]] ThreadPlan PlanFor(DataSize size) const;

  /// Feeds an observed dispatch wait into the per-stage EWMA (Eq. 2's EQT).
  void ObserveQueueWait(std::size_t stage, SimTime wait);

  /// Delay cost (Eq. 1) of delaying every job in `queue` by `delay`. Each
  /// job's ETT (Eq. 2) sums the EQT estimates, read once per call, with
  /// the job's cached EET values; the model is not evaluated.
  [[nodiscard]] double QueueDelayCost(std::span<const QueuedJobSnapshot> queue,
                                      SimTime delay) const;

  /// The predictive hire-or-wait inequality for the head of a stage queue:
  /// true = hire public capacity now. `head_exec` is the head's cached
  /// execution time for `stage` at `threads`. `next_free_delay` is the
  /// time until the earliest busy worker frees (nullopt when none is busy
  /// — waiting cannot help, so the answer is always "hire"). When `eval`
  /// is non-null the priced inputs are copied out for the decision audit;
  /// passing it never changes the decision.
  [[nodiscard]] bool PredictiveShouldHire(
      std::span<const QueuedJobSnapshot> queue, int threads,
      SimTime head_exec, std::optional<SimTime> next_free_delay,
      SimTime boot_penalty, HireEvaluation* eval = nullptr) const;

  /// Core price per TU the plan optimizers assume (for the plan audit):
  /// the midpoint of the private and public tier prices.
  [[nodiscard]] double price_hint() const { return price_hint_; }

  /// Call once per completed pipeline run. Returns true when the adaptive
  /// long-term allocator is due for a replan (the caller then computes the
  /// realized bill and calls ReplanFromBill).
  [[nodiscard]] bool NoteCompletion();

  /// Adaptive replanning: refresh the long-term plan with the effective
  /// core price observed so far (bill divided by core-time used).
  void ReplanFromBill(const cloud::CostReport& bill);

 private:
  [[nodiscard]] AllocationContext MakeContext(double price) const;

  SimulationConfig config_;
  gatk::PipelineModel model_;  ///< scaled by config.stage_time_scale
  workload::RewardFunction reward_;
  QueueTimeEstimator queue_estimator_;
  std::optional<ThreadPlan> forced_plan_;
  double price_hint_ = 0.0;
  ThreadPlan constant_plan_;  ///< for kLongTerm / kBestConstant / forced
  std::size_t completions_since_replan_ = 0;
};

}  // namespace scan::core
