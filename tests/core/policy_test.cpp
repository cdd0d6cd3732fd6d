#include "scan/core/policy.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "scan/core/config.hpp"

namespace scan::core {
namespace {

const gatk::PipelineModel& Model() {
  static const gatk::PipelineModel model = gatk::PipelineModel::PaperGatk();
  return model;
}

TEST(SchedulingPolicyTest, PriceHintIsTheTierMidpoint) {
  for (const double public_price : {20.0, 50.0, 80.0, 110.0}) {
    SimulationConfig config;
    config.public_cost_per_core_tu = public_price;
    config.private_cost_per_core_tu = 7.0;
    const SchedulingPolicy policy(config, Model(), std::nullopt);
    EXPECT_DOUBLE_EQ(policy.price_hint(), 0.5 * (7.0 + public_price));
  }
}

TEST(SchedulingPolicyTest, AdaptiveReplanIsDueEveryTwoHundredCompletions) {
  SimulationConfig config;
  config.allocation = AllocationAlgorithm::kLongTermAdaptive;
  SchedulingPolicy policy(config, Model(), std::nullopt);
  for (int round = 0; round < 3; ++round) {
    for (int i = 1; i < 200; ++i) {
      ASSERT_FALSE(policy.NoteCompletion()) << "round " << round << " i " << i;
    }
    EXPECT_TRUE(policy.NoteCompletion()) << "round " << round;
  }
}

TEST(SchedulingPolicyTest, StaticAllocationsNeverReplan) {
  for (const auto allocation :
       {AllocationAlgorithm::kGreedy, AllocationAlgorithm::kLongTerm,
        AllocationAlgorithm::kBestConstant}) {
    SimulationConfig config;
    config.allocation = allocation;
    SchedulingPolicy policy(config, Model(), std::nullopt);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_FALSE(policy.NoteCompletion())
          << AllocationAlgorithmName(allocation) << " completion " << i;
    }
  }
}

TEST(SchedulingPolicyTest, ReplanFromAnEmptyBillKeepsThePlan) {
  SimulationConfig config;
  config.allocation = AllocationAlgorithm::kLongTermAdaptive;
  SchedulingPolicy policy(config, Model(), std::nullopt);
  const ThreadPlan before = policy.PlanFor(DataSize{config.mean_job_size});
  policy.ReplanFromBill(cloud::CostReport{});
  EXPECT_EQ(policy.PlanFor(DataSize{config.mean_job_size}), before);
}

TEST(SchedulingPolicyTest, ForcedPlanWinsForEveryAllocation) {
  const ThreadPlan forced(Model().stage_count(), 2);
  for (const auto allocation :
       {AllocationAlgorithm::kGreedy, AllocationAlgorithm::kLongTerm,
        AllocationAlgorithm::kLongTermAdaptive,
        AllocationAlgorithm::kBestConstant}) {
    SimulationConfig config;
    config.allocation = allocation;
    const SchedulingPolicy policy(config, Model(), forced);
    EXPECT_EQ(policy.PlanFor(DataSize{1.0}), forced)
        << AllocationAlgorithmName(allocation);
    EXPECT_EQ(policy.PlanFor(DataSize{40.0}), forced)
        << AllocationAlgorithmName(allocation);
  }
}

}  // namespace
}  // namespace scan::core
