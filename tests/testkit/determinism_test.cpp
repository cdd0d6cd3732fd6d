// Golden-run determinism: every (scaling x allocation) policy pair must
// produce bit-identical metrics and event traces when run twice with the
// same seed — the FoundationDB-style contract the whole evaluation
// pipeline rests on.

#include <gtest/gtest.h>

#include "scan/testkit/golden.hpp"

namespace scan::testkit {
namespace {

core::SimulationConfig ShortConfig() {
  core::SimulationConfig config;
  config.duration = SimTime{250.0};
  return config;
}

using PolicyPair = std::tuple<core::ScalingAlgorithm, core::AllocationAlgorithm>;

class DeterminismEveryPolicy : public testing::TestWithParam<PolicyPair> {};

TEST_P(DeterminismEveryPolicy, SameSeedBitIdentical) {
  core::SimulationConfig config = ShortConfig();
  std::tie(config.scaling, config.allocation) = GetParam();
  const DeterminismReport report = CheckDeterminism(config, config.SeedFor(0));
  EXPECT_TRUE(report.identical) << report.ToString();
  EXPECT_GT(report.first.trace_events, 0u);
}

TEST_P(DeterminismEveryPolicy, SameSeedBitIdenticalWithFailures) {
  core::SimulationConfig config = ShortConfig();
  std::tie(config.scaling, config.allocation) = GetParam();
  config.worker_failure_rate = 0.02;
  const DeterminismReport report = CheckDeterminism(config, config.SeedFor(1));
  EXPECT_TRUE(report.identical) << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicyPairs, DeterminismEveryPolicy,
    testing::Combine(
        testing::Values(core::ScalingAlgorithm::kAlwaysScale,
                        core::ScalingAlgorithm::kNeverScale,
                        core::ScalingAlgorithm::kPredictive),
        testing::Values(core::AllocationAlgorithm::kGreedy,
                        core::AllocationAlgorithm::kLongTerm,
                        core::AllocationAlgorithm::kLongTermAdaptive,
                        core::AllocationAlgorithm::kBestConstant)),
    [](const testing::TestParamInfo<PolicyPair>& param_info) {
      std::string name =
          std::string(core::ScalingAlgorithmName(std::get<0>(param_info.param))) +
          "_" + core::AllocationAlgorithmName(std::get<1>(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';  // gtest names must be identifiers
      }
      return name;
    });

TEST(Determinism, DifferentSeedsDiverge) {
  const core::SimulationConfig config = ShortConfig();
  const InstrumentedRun a = RunInstrumented(config, config.SeedFor(0));
  const InstrumentedRun b = RunInstrumented(config, config.SeedFor(1));
  EXPECT_NE(a.trace_digest, b.trace_digest)
      << "independent repetitions should not share an event trace";
  EXPECT_NE(a.fingerprint.digest, b.fingerprint.digest);
}

TEST(Determinism, FingerprintDiffNamesTheField) {
  const core::SimulationConfig config = ShortConfig();
  const InstrumentedRun run = RunInstrumented(config, config.SeedFor(0));
  MetricsFingerprint tampered = run.fingerprint;
  ASSERT_FALSE(tampered.fields.empty());
  tampered.fields.front().value += 1.0;
  const auto diffs = run.fingerprint.DiffAgainst(tampered);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs.front().find(tampered.fields.front().name),
            std::string::npos)
      << diffs.front();
}

TEST(Determinism, TimelineSamplingPreservesDeterminism) {
  core::SimulationConfig config = ShortConfig();
  core::SchedulerOptions options;
  options.timeline_sample_period = SimTime{5.0};
  const DeterminismReport report =
      CheckDeterminism(config, config.SeedFor(2), options);
  EXPECT_TRUE(report.identical) << report.ToString();
  EXPECT_FALSE(report.first.metrics.timeline.empty());
}

}  // namespace
}  // namespace scan::testkit
