// Compiled profiles through the engines. The headline: gatk.pdl's
// compiled model drives schedules bit-identical to the hardcoded paper
// model on the 15 pinned sim<->runtime parity seeds, and the DAG
// profiles run end to end through BOTH engines with the same bit-for-bit
// comparison. A fuzzer-pipeline stress sweep rides along: arbitrary
// drawn topologies under the invariant oracle and a determinism replay.

#include <gtest/gtest.h>

#include <string>

#include "scan/gatk/pipeline_model.hpp"
#include "scan/pdl/compiler.hpp"
#include "scan/testkit/golden.hpp"
#include "scan/testkit/parity.hpp"
#include "scan/testkit/scenario.hpp"

namespace scan::testkit {
namespace {

core::SimulationConfig BaseConfig() {
  core::SimulationConfig config;
  config.duration = SimTime{200.0};
  config.mean_interarrival_tu = 2.2;  // mirror runtime_parity_test
  return config;
}

gatk::PipelineModel CompileProfile(const std::string& name) {
  pdl::CompileResult result =
      pdl::CompileFile(std::string(SCAN_PDL_PROFILE_DIR) + "/" + name);
  if (!result.ok()) {
    throw std::runtime_error(pdl::FormatDiagnostics(result.diagnostics));
  }
  return std::move(result.pipeline->model);
}

struct PinnedCase {
  std::string name;
  core::AllocationAlgorithm allocation;
  core::ScalingAlgorithm scaling;
  std::uint64_t seed;
  double failure_rate = 0.0;
  double timeline_period = 0.0;
};

class PdlGatkParity : public testing::TestWithParam<PinnedCase> {};

TEST_P(PdlGatkParity, CompiledProfileMatchesHardcodedModelBitForBit) {
  const PinnedCase& param = GetParam();
  core::SimulationConfig config = BaseConfig();
  config.allocation = param.allocation;
  config.scaling = param.scaling;
  config.worker_failure_rate = param.failure_rate;

  core::SchedulerOptions options;
  options.timeline_sample_period = SimTime{param.timeline_period};

  const gatk::PipelineModel compiled = CompileProfile("gatk.pdl");
  const InstrumentedRun from_pdl =
      RunInstrumented(config, compiled, param.seed, options);
  const InstrumentedRun from_code =
      RunInstrumented(config, param.seed, options);  // hardcoded PaperGatk

  const auto diff = from_pdl.fingerprint.DiffAgainst(from_code.fingerprint);
  EXPECT_TRUE(diff.empty()) << diff.front();
  EXPECT_EQ(from_pdl.fingerprint.digest, from_code.fingerprint.digest);
  EXPECT_EQ(from_pdl.trace_digest, from_code.trace_digest);
  EXPECT_EQ(from_pdl.trace_events, from_code.trace_events);

  // And the compiled model holds the live-runtime parity contract too.
  runtime::RuntimeOptions runtime_options;
  runtime_options.timeline_sample_period = SimTime{param.timeline_period};
  const ParityResult parity =
      CheckSimRuntimeParity(config, compiled, param.seed, runtime_options);
  EXPECT_TRUE(parity.ok()) << parity.Describe();
  EXPECT_GT(parity.stage_records, 0u);
}

using core::AllocationAlgorithm;
using core::ScalingAlgorithm;

INSTANTIATE_TEST_SUITE_P(
    PinnedSeeds, PdlGatkParity,
    testing::Values(
        PinnedCase{"GreedyAlways", AllocationAlgorithm::kGreedy,
                   ScalingAlgorithm::kAlwaysScale, 0xA11},
        PinnedCase{"GreedyNever", AllocationAlgorithm::kGreedy,
                   ScalingAlgorithm::kNeverScale, 0xA12},
        PinnedCase{"GreedyPredictive", AllocationAlgorithm::kGreedy,
                   ScalingAlgorithm::kPredictive, 0xA13},
        PinnedCase{"LongTermAlways", AllocationAlgorithm::kLongTerm,
                   ScalingAlgorithm::kAlwaysScale, 0xA21},
        PinnedCase{"LongTermPredictive", AllocationAlgorithm::kLongTerm,
                   ScalingAlgorithm::kPredictive, 0xA22},
        PinnedCase{"AdaptiveNever", AllocationAlgorithm::kLongTermAdaptive,
                   ScalingAlgorithm::kNeverScale, 0xA31},
        PinnedCase{"AdaptivePredictive",
                   AllocationAlgorithm::kLongTermAdaptive,
                   ScalingAlgorithm::kPredictive, 0xA32},
        PinnedCase{"BestConstantAlways", AllocationAlgorithm::kBestConstant,
                   ScalingAlgorithm::kAlwaysScale, 0xA41},
        PinnedCase{"BestConstantNever", AllocationAlgorithm::kBestConstant,
                   ScalingAlgorithm::kNeverScale, 0xA42},
        PinnedCase{"BestConstantPredictive",
                   AllocationAlgorithm::kBestConstant,
                   ScalingAlgorithm::kPredictive, 0xA43},
        PinnedCase{"LongTermNever", AllocationAlgorithm::kLongTerm,
                   ScalingAlgorithm::kNeverScale, 0xA51},
        PinnedCase{"AdaptiveAlways", AllocationAlgorithm::kLongTermAdaptive,
                   ScalingAlgorithm::kAlwaysScale, 0xA52},
        PinnedCase{"PredictiveWithFailures",
                   AllocationAlgorithm::kBestConstant,
                   ScalingAlgorithm::kPredictive, 0xA61, 0.02},
        PinnedCase{"AlwaysWithFailures", AllocationAlgorithm::kGreedy,
                   ScalingAlgorithm::kAlwaysScale, 0xA62, 0.05},
        PinnedCase{"PredictiveWithTimeline", AllocationAlgorithm::kLongTerm,
                   ScalingAlgorithm::kPredictive, 0xA71, 0.0, 10.0}),
    [](const testing::TestParamInfo<PinnedCase>& param_info) {
      return param_info.param.name;
    });

TEST(PdlDagParity, DagProfilesRunBothEnginesBitForBit) {
  // gatk_spark: fan-out/fan-in DAG; cloudbreak: map/reduce with a
  // deadline-lowered reward; rbiocloud: bag of tasks with a crash prior
  // (so ApplyTo arms failure injection on the DAG path).
  const char* names[] = {"gatk_spark.pdl", "cloudbreak.pdl",
                         "rbiocloud.pdl"};
  for (const char* name : names) {
    pdl::CompileResult result =
        pdl::CompileFile(std::string(SCAN_PDL_PROFILE_DIR) + "/" + name);
    ASSERT_TRUE(result.ok()) << pdl::FormatDiagnostics(result.diagnostics);
    core::SimulationConfig config = BaseConfig();
    result.pipeline->ApplyTo(config);

    const ParityResult parity =
        CheckSimRuntimeParity(config, result.pipeline->model, 0xDA6);
    EXPECT_TRUE(parity.ok()) << name << "\n" << parity.Describe();
    EXPECT_GT(parity.stage_records, 0u) << name;
    EXPECT_GT(parity.job_records, 0u) << name;
  }
}

TEST(PdlDagParity, DagProfileRunsAreDeterministic) {
  core::SimulationConfig config = BaseConfig();
  config.scaling = core::ScalingAlgorithm::kPredictive;
  const DeterminismReport report =
      CheckDeterminism(config, CompileProfile("gatk_spark.pdl"), 0xD1CE);
  EXPECT_TRUE(report.identical) << report.ToString();
}

TEST(PdlFuzzedScenarios, DrawnPipelinesHoldOracleAndDeterminism) {
  ScenarioOptions options;
  options.draw_pdl_pipelines = true;
  const auto results = StressSweep(0x9D17u, 16, options);
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok()) << result.Describe();
    EXPECT_FALSE(result.pdl_source.empty());
    EXPECT_GT(result.events_checked, 0u);
  }
}

}  // namespace
}  // namespace scan::testkit
