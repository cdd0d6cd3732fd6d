// Cross-module property suites: invariants that must hold for every
// configuration cell, swept with parameterized gtest.

#include <gtest/gtest.h>

#include "scan/core/experiment.hpp"
#include "scan/genomics/fastq.hpp"
#include "scan/genomics/sharder.hpp"
#include "scan/genomics/synthetic.hpp"

namespace scan::core {
namespace {

// ---------------------------------------------------------------------------
// Scheduler invariants across the policy x load x reward grid.
// ---------------------------------------------------------------------------

using SchedulerCell = std::tuple<ScalingAlgorithm, AllocationAlgorithm,
                                 double /*interval*/, int /*reward scheme*/>;

class SchedulerInvariantProperty
    : public testing::TestWithParam<SchedulerCell> {};

TEST_P(SchedulerInvariantProperty, HoldsForEveryCell) {
  const auto [scaling, allocation, interval, scheme] = GetParam();
  SimulationConfig config;
  config.duration = SimTime{400.0};
  config.scaling = scaling;
  config.allocation = allocation;
  config.mean_interarrival_tu = interval;
  config.reward_scheme = static_cast<workload::RewardScheme>(scheme);

  SchedulerOptions options;
  options.timeline_sample_period = SimTime{20.0};
  Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(),
                      config.SeedFor(0), options);
  const RunMetrics metrics = scheduler.Run();

  // Conservation: you cannot complete what never arrived.
  EXPECT_LE(metrics.jobs_completed, metrics.jobs_arrived);
  EXPECT_GT(metrics.jobs_completed, 0u);

  // Accounting: bill components are non-negative and sum to the total.
  EXPECT_GE(metrics.cost_report.private_tier.value(), 0.0);
  EXPECT_GE(metrics.cost_report.public_tier.value(), 0.0);
  EXPECT_NEAR(metrics.cost_report.total.value(),
              metrics.cost_report.private_tier.value() +
                  metrics.cost_report.public_tier.value(),
              1e-6);

  // Policy contract: never-scale truly never touches the public tier.
  if (scaling == ScalingAlgorithm::kNeverScale) {
    EXPECT_EQ(metrics.public_hires, 0u);
    EXPECT_DOUBLE_EQ(metrics.cost_report.public_tier.value(), 0.0);
  }

  // Latency and waits are physical (non-negative); every completion was
  // measured.
  EXPECT_GE(metrics.latency.min(), 0.0);
  EXPECT_GE(metrics.queue_wait.min(), 0.0);
  EXPECT_EQ(metrics.latency.count(), metrics.jobs_completed);

  // Timeline: private tier never exceeds its capacity; time advances.
  for (std::size_t i = 0; i < metrics.timeline.size(); ++i) {
    EXPECT_LE(metrics.timeline[i].private_cores,
              config.private_capacity_cores);
    if (i > 0) {
      EXPECT_GT(metrics.timeline[i].time, metrics.timeline[i - 1].time);
    }
  }

  // Throughput reward can never be negative; so total reward stays
  // positive under that scheme.
  if (config.reward_scheme == workload::RewardScheme::kThroughputBased) {
    EXPECT_GT(metrics.total_reward, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchedulerInvariantProperty,
    testing::Combine(
        testing::Values(ScalingAlgorithm::kNeverScale,
                        ScalingAlgorithm::kAlwaysScale,
                        ScalingAlgorithm::kPredictive),
        testing::Values(AllocationAlgorithm::kGreedy,
                        AllocationAlgorithm::kBestConstant),
        testing::Values(2.0, 3.0), testing::Values(0, 1)));

// ---------------------------------------------------------------------------
// Sharder round-trip property across shard-size policies.
// ---------------------------------------------------------------------------

class SharderRoundTripProperty
    : public testing::TestWithParam<std::tuple<int /*records*/,
                                               int /*max_records*/,
                                               int /*max_bytes_div*/>> {};

TEST_P(SharderRoundTripProperty, ShardsReassembleExactly) {
  const auto [records, max_records, bytes_div] = GetParam();
  genomics::SyntheticGenerator gen(static_cast<std::uint64_t>(records) * 31 +
                                   static_cast<std::uint64_t>(max_records));
  const auto ref = gen.Reference("chr1", 600);
  genomics::ReadSimSpec spec;
  spec.read_count = static_cast<std::size_t>(records);
  spec.read_length = 60;
  const std::string payload = genomics::WriteFastq(gen.Reads(ref, spec));

  genomics::ShardSpec shard_spec;
  shard_spec.max_records = static_cast<std::size_t>(max_records);
  if (bytes_div > 0) {
    shard_spec.max_bytes = std::max<std::size_t>(1, payload.size() /
                                                        static_cast<std::size_t>(
                                                            bytes_div));
  }
  const auto shards = genomics::ShardFastq(payload, shard_spec);
  ASSERT_TRUE(shards.ok()) << shards.status().ToString();

  // Round trip: concatenation restores the payload byte for byte.
  EXPECT_EQ(genomics::MergeFastq(shards->shards), payload);
  // Every shard respects the record bound and parses cleanly.
  std::size_t total = 0;
  for (const std::string& shard : shards->shards) {
    const auto parsed = genomics::ParseFastq(shard);
    ASSERT_TRUE(parsed.ok());
    if (shard_spec.max_records > 0) {
      EXPECT_LE(parsed->size(), shard_spec.max_records);
    }
    total += parsed->size();
  }
  EXPECT_EQ(total, static_cast<std::size_t>(records));
}

INSTANTIATE_TEST_SUITE_P(Grid, SharderRoundTripProperty,
                         testing::Combine(testing::Values(1, 13, 100),
                                          testing::Values(1, 7, 64),
                                          testing::Values(0, 3, 10)));

// ---------------------------------------------------------------------------
// Determinism property: every policy is bit-for-bit reproducible.
// ---------------------------------------------------------------------------

class DeterminismProperty : public testing::TestWithParam<ScalingAlgorithm> {
};

TEST_P(DeterminismProperty, TwoRunsAgreeExactly) {
  SimulationConfig config;
  config.duration = SimTime{300.0};
  config.scaling = GetParam();
  config.worker_failure_rate = 0.02;  // stress the failure streams too
  Scheduler a(config, gatk::PipelineModel::PaperGatk(), config.SeedFor(1));
  Scheduler b(config, gatk::PipelineModel::PaperGatk(), config.SeedFor(1));
  const RunMetrics ma = a.Run();
  const RunMetrics mb = b.Run();
  EXPECT_EQ(ma.jobs_completed, mb.jobs_completed);
  EXPECT_EQ(ma.worker_failures, mb.worker_failures);
  EXPECT_DOUBLE_EQ(ma.total_reward, mb.total_reward);
  EXPECT_DOUBLE_EQ(ma.total_cost, mb.total_cost);
  EXPECT_DOUBLE_EQ(ma.latency.mean(), mb.latency.mean());
}

INSTANTIATE_TEST_SUITE_P(Policies, DeterminismProperty,
                         testing::Values(ScalingAlgorithm::kNeverScale,
                                         ScalingAlgorithm::kAlwaysScale,
                                         ScalingAlgorithm::kPredictive));

}  // namespace
}  // namespace scan::core
