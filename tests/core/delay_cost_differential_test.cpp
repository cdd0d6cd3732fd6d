// Differential test of the hire-vs-wait delay cost (Eq. 1 priced with
// Eq. 2's ETT). SchedulingPolicy::QueueDelayCost sums per-job stage times
// cached at admission; the testkit oracle re-evaluates the pipeline model
// for every stage. The two must agree bit for bit: a one-ulp drift would
// flip a hire-vs-wait decision somewhere in a long run and break the
// pinned digests.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scan/common/rng.hpp"
#include "scan/core/config.hpp"
#include "scan/core/estimators.hpp"
#include "scan/core/policy.hpp"
#include "scan/testkit/eq2_reference.hpp"

namespace scan::core {
namespace {

/// A queued job as the engine holds it: the plan, plus the EET cache the
/// engine fills at admission from the policy's (scaled) model.
struct QueuedJob {
  DataSize size{0.0};
  SimTime elapsed{0.0};
  std::size_t stage = 0;
  ThreadPlan plan;
  std::vector<double> stage_exec_tu;
};

QueuedJob Admit(const SchedulingPolicy& policy, DataSize size, SimTime elapsed,
                std::size_t stage) {
  QueuedJob job{size, elapsed, stage, policy.PlanFor(size), {}};
  const gatk::PipelineModel& model = policy.model();
  for (std::size_t i = 0; i < model.stage_count(); ++i) {
    job.stage_exec_tu.push_back(
        model.ThreadedTime(i, job.plan[i], size).value());
  }
  return job;
}

/// The policy with a mirror of its queue-wait estimator: both are fed the
/// same observations, so the oracle reads the same EQT values.
struct Pricing {
  Pricing(const SimulationConfig& config, const gatk::PipelineModel& model)
      : policy(config, model, std::nullopt),
        mirror(policy.model().stage_count()) {}

  void Observe(std::size_t stage, SimTime wait) {
    policy.ObserveQueueWait(stage, wait);
    mirror.Observe(stage, wait);
  }

  SchedulingPolicy policy;
  QueueTimeEstimator mirror;
};

/// Asserts the cached path equals the oracle's Σ DelayCost bit for bit.
void ExpectBitEqual(const Pricing& pricing, const std::vector<QueuedJob>& jobs,
                    SimTime delay, const std::string& where) {
  std::vector<QueuedJobSnapshot> snapshot;
  double reference = 0.0;
  for (const QueuedJob& job : jobs) {
    snapshot.push_back({job.size, job.elapsed, job.stage,
                        std::span<const double>(job.stage_exec_tu)});
    const SimTime ett = testkit::EstimateTotalTime(
        pricing.policy.model(), pricing.mirror, job.size, job.elapsed,
        job.stage, job.plan);
    reference += pricing.policy.reward().DelayCost(job.size, ett, delay).value();
  }
  const double cached = pricing.policy.QueueDelayCost(snapshot, delay);
  ASSERT_EQ(std::bit_cast<std::uint64_t>(cached),
            std::bit_cast<std::uint64_t>(reference))
      << where << ": cached " << cached << " vs oracle " << reference;
}

/// Prices `trials` seeded random queues. Every stage's EWMA is seeded
/// with probability `seeded_share` (the rest read 0); each queue sits at
/// one stage, drawn uniformly, so most heads are past stage 0.
void RunRandomQueues(const SimulationConfig& config,
                     const gatk::PipelineModel& model, std::uint64_t seed,
                     double seeded_share, int trials) {
  Pricing pricing(config, model);
  RandomStream rng(seed, "delay-cost-differential");
  const auto stages = static_cast<std::uint32_t>(model.stage_count());
  for (int trial = 0; trial < trials; ++trial) {
    for (std::uint32_t s = 0; s < stages; ++s) {
      if (rng.Uniform() < seeded_share) {
        pricing.Observe(s, SimTime{rng.Uniform(0.0, 30.0)});
      }
    }
    const std::size_t stage = rng.UniformBelow(stages);
    std::vector<QueuedJob> jobs;
    const std::uint32_t length = rng.UniformBelow(40);
    for (std::uint32_t j = 0; j < length; ++j) {
      jobs.push_back(Admit(pricing.policy, DataSize{rng.Uniform(0.5, 12.0)},
                           SimTime{rng.Uniform(0.0, 80.0)}, stage));
    }
    ExpectBitEqual(pricing, jobs, SimTime{rng.Uniform(0.01, 20.0)},
                   "seed " + std::to_string(seed) + " trial " +
                       std::to_string(trial));
    if (testing::Test::HasFatalFailure()) return;
  }
}

SimulationConfig ConfigFor(AllocationAlgorithm allocation,
                           workload::RewardScheme scheme) {
  SimulationConfig config;
  config.allocation = allocation;
  config.reward_scheme = scheme;
  return config;
}

constexpr workload::RewardScheme kSchemes[] = {
    workload::RewardScheme::kTimeBased,
    workload::RewardScheme::kThroughputBased};

TEST(DelayCostDifferentialTest, PaperGatkPartlySeededEwmas) {
  for (const auto scheme : kSchemes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      RunRandomQueues(ConfigFor(AllocationAlgorithm::kBestConstant, scheme),
                      gatk::PipelineModel::PaperGatk(), seed,
                      /*seeded_share=*/0.5, /*trials=*/150);
      ASSERT_FALSE(HasFatalFailure());
    }
  }
}

TEST(DelayCostDifferentialTest, GreedyPerSizePlans) {
  for (const auto scheme : kSchemes) {
    for (std::uint64_t seed = 11; seed <= 13; ++seed) {
      RunRandomQueues(ConfigFor(AllocationAlgorithm::kGreedy, scheme),
                      gatk::PipelineModel::PaperGatk(), seed,
                      /*seeded_share=*/0.7, /*trials=*/100);
      ASSERT_FALSE(HasFatalFailure());
    }
  }
}

TEST(DelayCostDifferentialTest, GreedyPlansDifferBySize) {
  // Guards the test above: kGreedy has to hand out more than one plan
  // over the drawn sizes, or it would not exercise per-job caches.
  const SchedulingPolicy policy(
      ConfigFor(AllocationAlgorithm::kGreedy,
                workload::RewardScheme::kTimeBased),
      gatk::PipelineModel::PaperGatk(), std::nullopt);
  EXPECT_NE(policy.PlanFor(DataSize{0.5}), policy.PlanFor(DataSize{12.0}));
}

TEST(DelayCostDifferentialTest, BagOfTasksModel) {
  // Five independent stages (no deps): every stage is ready on arrival,
  // so queues at any stage price the suffix of the index order.
  const gatk::PipelineModel bag(
      {{1.2, 0.5, 0.9}, {0.4, 2.0, 0.3}, {2.5, 0.1, 0.95}, {0.8, 1.0, 0.6},
       {0.3, 0.2, 0.0}},
      gatk::StageDeps(5));
  for (const auto scheme : kSchemes) {
    RunRandomQueues(ConfigFor(AllocationAlgorithm::kLongTerm, scheme), bag,
                    /*seed=*/21, /*seeded_share=*/0.4, /*trials=*/150);
    ASSERT_FALSE(HasFatalFailure());
  }
}

TEST(DelayCostDifferentialTest, UnseededEwmasReadZero) {
  RunRandomQueues(ConfigFor(AllocationAlgorithm::kBestConstant,
                            workload::RewardScheme::kTimeBased),
                  gatk::PipelineModel::PaperGatk(), /*seed=*/31,
                  /*seeded_share=*/0.0, /*trials=*/50);
}

TEST(DelayCostDifferentialTest, EmptyQueueCostsNothing) {
  const Pricing pricing(ConfigFor(AllocationAlgorithm::kBestConstant,
                                  workload::RewardScheme::kTimeBased),
                        gatk::PipelineModel::PaperGatk());
  ExpectBitEqual(pricing, {}, SimTime{3.0}, "empty queue");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                pricing.policy.QueueDelayCost({}, SimTime{3.0})),
            std::bit_cast<std::uint64_t>(0.0));
}

TEST(DelayCostDifferentialTest, StageTimeSizeValidated) {
  const SchedulingPolicy policy(
      ConfigFor(AllocationAlgorithm::kBestConstant,
                workload::RewardScheme::kTimeBased),
      gatk::PipelineModel::PaperGatk(), std::nullopt);
  const std::vector<double> short_cache(3, 1.0);
  const QueuedJobSnapshot job{DataSize{1.0}, SimTime{0.0}, 0,
                              std::span<const double>(short_cache)};
  EXPECT_THROW((void)policy.QueueDelayCost({&job, 1}, SimTime{1.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace scan::core
