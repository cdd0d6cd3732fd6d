// Seed-stability regression: one canonical Figure-4 configuration is
// pinned to its exact metrics fingerprint. Any behavioural change to the
// scheduler, cloud metering, arrival process, RNG streams, or reward
// function shows up here as a named field diff — if the change is
// intentional, re-pin the constants below from the failure output.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "scan/obs/audit.hpp"
#include "scan/testkit/digest.hpp"
#include "scan/testkit/golden.hpp"

namespace scan::core {
namespace {

/// The canonical cell: Figure 4's featured policy pair at mid load.
SimulationConfig CanonicalConfig() {
  SimulationConfig config;
  config.allocation = AllocationAlgorithm::kBestConstant;
  config.scaling = ScalingAlgorithm::kPredictive;
  config.mean_interarrival_tu = 2.5;
  config.reward_scheme = workload::RewardScheme::kTimeBased;
  config.public_cost_per_core_tu = 50.0;
  config.duration = SimTime{2000.0};
  return config;
}

// Golden values, pinned from the run on the reference toolchain (x86-64,
// IEEE-754 strict; the CI container). Doubles are compared bit-exactly.
constexpr std::uint64_t kGoldenFingerprint = 13506129927133369824ULL;
// Re-pinned when ingest went streaming: arrivals are now scheduled lazily
// (each batch schedules its successor), which relabels event sequence
// numbers without reordering execution — every metric, the trace event
// count, and the metrics fingerprint stayed bit-identical.
constexpr std::uint64_t kGoldenTraceDigest = 11049285700526288949ULL;
constexpr std::uint64_t kGoldenTraceEvents = 34676;
constexpr double kGoldenJobsArrived = 2428.0;
constexpr double kGoldenJobsCompleted = 2419.0;
constexpr double kGoldenTotalReward = 2289226.6092313356;
constexpr double kGoldenTotalCost = 682782.42066057015;

TEST(GoldenDigest, CanonicalFig4CellIsSeedStable) {
  const SimulationConfig config = CanonicalConfig();
  const testkit::InstrumentedRun run =
      testkit::RunInstrumented(config, config.SeedFor(0));

  EXPECT_EQ(run.metrics.jobs_arrived,
            static_cast<std::size_t>(kGoldenJobsArrived));
  EXPECT_EQ(run.metrics.jobs_completed,
            static_cast<std::size_t>(kGoldenJobsCompleted));
  EXPECT_EQ(run.metrics.total_reward, kGoldenTotalReward);
  EXPECT_EQ(run.metrics.total_cost, kGoldenTotalCost);
  EXPECT_EQ(run.trace_events, kGoldenTraceEvents);
  EXPECT_EQ(run.trace_digest, kGoldenTraceDigest)
      << "event trace changed; behavioural drift upstream of metrics";
  EXPECT_EQ(run.fingerprint.digest, kGoldenFingerprint)
      << "re-pin from this fingerprint if the change is intentional:\n"
      << run.fingerprint.ToString();
}

// The metrics and the event trace can absorb a one-ulp drift in the Eq. 1
// prices when no hire-vs-wait outcome flips; the audited prices cannot.
constexpr std::uint64_t kGoldenPricingDigest = 16071931412283064627ULL;
constexpr std::size_t kGoldenPricedDecisions = 16726;

TEST(GoldenDigest, CanonicalCellPricesAreBitStable) {
  const SimulationConfig config = CanonicalConfig();
  obs::DecisionAudit& audit = obs::DecisionAudit::Global();
  audit.Clear();
  audit.Enable();
  const testkit::InstrumentedRun run =
      testkit::RunInstrumented(config, config.SeedFor(0));
  audit.Disable();
  const std::vector<obs::HireDecisionRecord> hires = audit.hires();
  audit.Clear();

  testkit::Fnv1aDigest prices;
  std::size_t priced = 0;
  for (const obs::HireDecisionRecord& hire : hires) {
    if (std::isnan(hire.delay_cost)) continue;
    ++priced;
    prices.MixDouble(hire.delay_cost);
    prices.MixDouble(hire.hire_cost);
  }
  EXPECT_EQ(run.fingerprint.digest, kGoldenFingerprint);
  EXPECT_EQ(priced, kGoldenPricedDecisions);
  EXPECT_EQ(prices.value(), kGoldenPricingDigest)
      << "Eq. 1 delay or hire cost drifted over " << priced
      << " priced decisions";
}

TEST(GoldenDigest, CanonicalCellReplaysIdentically) {
  const SimulationConfig config = CanonicalConfig();
  const testkit::DeterminismReport report =
      testkit::CheckDeterminism(config, config.SeedFor(0));
  EXPECT_TRUE(report.identical) << report.ToString();
}

}  // namespace
}  // namespace scan::core
