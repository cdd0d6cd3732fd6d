#include "scan/core/policy.hpp"

#include <array>
#include <stdexcept>

#include "scan/fault/retry.hpp"

namespace scan::core {

namespace {

/// kLongTermAdaptive replans after this many completed pipeline runs.
constexpr std::size_t kAdaptiveReplanEvery = 200;

}  // namespace

SchedulingPolicy::SchedulingPolicy(const SimulationConfig& config,
                                   const gatk::PipelineModel& model,
                                   std::optional<ThreadPlan> forced_plan)
    : config_(config),
      // A model carrying its own calibration (compiled .pdl profiles) wins
      // over the config scalar; legacy models defer to the config, keeping
      // every pre-PDL run bit-identical.
      model_(model.Scaled(model.time_scale().value_or(config.stage_time_scale))),
      reward_(config.MakeRewardParams()),
      queue_estimator_(model_.stage_count()),
      forced_plan_(std::move(forced_plan)) {
  if (forced_plan_ && forced_plan_->size() != model_.stage_count()) {
    throw std::invalid_argument("SchedulingPolicy: forced plan size mismatch");
  }
  // Plan optimizers assume the blended core price of the tier mix the run
  // will see; the midpoint of the two tiers is a robust choice (pure
  // private prices over-widen plans, pure public prices over-narrow them).
  price_hint_ =
      0.5 * (config_.private_cost_per_core_tu + config_.public_cost_per_core_tu);
  const AllocationContext ctx = MakeContext(price_hint_);
  const DataSize expected{config_.mean_job_size};
  switch (config_.allocation) {
    case AllocationAlgorithm::kGreedy:
      constant_plan_ = SequentialPlan(model_.stage_count());  // unused
      break;
    case AllocationAlgorithm::kLongTerm:
    case AllocationAlgorithm::kLongTermAdaptive:
      constant_plan_ = LongTermPlan(model_, expected, ctx);
      break;
    case AllocationAlgorithm::kBestConstant:
      constant_plan_ = BestConstantPlan(model_, expected, ctx);
      break;
  }
  if (forced_plan_) constant_plan_ = *forced_plan_;
}

AllocationContext SchedulingPolicy::MakeContext(double price) const {
  return AllocationContext{price, std::span<const int>(config_.instance_sizes),
                           reward_};
}

ThreadPlan SchedulingPolicy::PlanFor(DataSize size) const {
  if (forced_plan_) return *forced_plan_;
  if (config_.allocation == AllocationAlgorithm::kGreedy) {
    return GreedyPlan(model_, size, MakeContext(price_hint_));
  }
  return constant_plan_;
}

void SchedulingPolicy::ObserveQueueWait(std::size_t stage, SimTime wait) {
  queue_estimator_.Observe(stage, wait);
}

double SchedulingPolicy::QueueDelayCost(
    std::span<const QueuedJobSnapshot> queue, SimTime delay) const {
  const std::size_t stages = model_.stage_count();
  std::array<double, gatk::PipelineModel::kMaxStages> eqt{};
  for (std::size_t i = 0; i < stages; ++i) {
    eqt[i] = queue_estimator_.Estimate(i).value();
  }
  double total = 0.0;
  for (const QueuedJobSnapshot& job : queue) {
    if (job.stage_exec_tu.size() != stages) {
      throw std::invalid_argument("QueueDelayCost: stage time size mismatch");
    }
    // Eq. 2 in the reference's interleaved order (EQT_i, then EET_i):
    // a suffix sum would reassociate the adds and move the last ulp.
    double remaining = 0.0;
    for (std::size_t i = job.stage; i < stages; ++i) {
      remaining += eqt[i];
      remaining += job.stage_exec_tu[i];
    }
    const SimTime ett = job.elapsed + SimTime{remaining};
    total += reward_.DelayCost(job.size, ett, delay).value();
  }
  return total;
}

bool SchedulingPolicy::PredictiveShouldHire(
    std::span<const QueuedJobSnapshot> queue, int threads, SimTime head_exec,
    std::optional<SimTime> next_free_delay, SimTime boot_penalty,
    HireEvaluation* eval) const {
  if (!next_free_delay) {
    // Nothing running: waiting cannot help.
    if (eval) eval->hire = true;
    return true;
  }
  const SimTime delay = *next_free_delay;
  if (eval) eval->next_free_delay_tu = delay.value();
  if (delay <= SimTime{0.0}) return false;  // a worker frees "now"

  const double delay_cost = QueueDelayCost(queue, delay);
  // Expected-rework pricing (§III delay-cost vs hire-cost under crashes):
  // the execution term is inflated by the closed-form restart factor so
  // hire-vs-wait sees the true expected public bill, while the boot
  // penalty is paid once regardless of crashes. When the factor is
  // exactly 1.0 (no crash rate) the arithmetic below reproduces the
  // legacy expression bit for bit.
  const double exec_tu = head_exec.value();
  const double rework = fault::ExpectedReworkFactor(
      config_.worker_failure_rate, exec_tu,
      config_.fault.checkpoint_interval.value());
  const double priced_exec = rework == 1.0 ? exec_tu : exec_tu * rework;
  const double hire_cost =
      config_.public_cost_per_core_tu * static_cast<double>(threads) *
      (priced_exec + boot_penalty.value());
  if (eval) {
    eval->delay_cost = delay_cost;
    eval->hire_cost = hire_cost;
    eval->rework_factor = rework;
    eval->hire = delay_cost > hire_cost;
  }
  return delay_cost > hire_cost;
}

bool SchedulingPolicy::NoteCompletion() {
  if (config_.allocation != AllocationAlgorithm::kLongTermAdaptive) {
    return false;
  }
  if (++completions_since_replan_ < kAdaptiveReplanEvery) {
    return false;
  }
  completions_since_replan_ = 0;
  return true;
}

void SchedulingPolicy::ReplanFromBill(const cloud::CostReport& bill) {
  const double core_tus = bill.private_core_tus + bill.public_core_tus;
  if (core_tus <= 0.0) return;
  const AllocationContext ctx = MakeContext(bill.total.value() / core_tus);
  constant_plan_ = LongTermPlan(model_, DataSize{config_.mean_job_size}, ctx);
}

}  // namespace scan::core
