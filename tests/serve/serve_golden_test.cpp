// Cross-commit pins of two serving episodes. serve_test only replays an
// episode against itself within one binary; these goldens catch a change
// that moves the whole serve path (front end, runtime, shared engine core)
// in lockstep. The tenant sets are the perfbench serve_mixed and
// serve_overload_obs shapes at a test-sized horizon.
//
// An intentional behaviour change re-pins from the failure output, which
// prints every value exactly.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "scan/serve/serve.hpp"

namespace scan::serve {
namespace {

TenantSpec Tenant(std::uint64_t id, const char* name,
                  workload::ArrivalPattern pattern, double weight,
                  double rate_scale, std::size_t queue_depth) {
  TenantSpec spec;
  spec.id = id;
  spec.name = name;
  spec.pattern.pattern = pattern;
  spec.weight = weight;
  spec.rate_scale = rate_scale;
  spec.max_queue_depth = queue_depth;
  return spec;
}

struct Golden {
  std::uint64_t digest = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t reward_bits = 0;
  std::uint64_t cost_bits = 0;
};

void ExpectGolden(const ServeReport& report, const Golden& golden) {
  const Golden got{report.digest, report.runtime.metrics.jobs_completed,
                   std::bit_cast<std::uint64_t>(
                       report.runtime.metrics.total_reward),
                   std::bit_cast<std::uint64_t>(
                       report.runtime.metrics.total_cost)};
  EXPECT_EQ(got.digest, golden.digest);
  EXPECT_EQ(got.jobs_completed, golden.jobs_completed);
  EXPECT_EQ(got.reward_bits, golden.reward_bits);
  EXPECT_EQ(got.cost_bits, golden.cost_bits);
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << "re-pin with {" << got.digest << "ULL, "
                  << got.jobs_completed << ", 0x" << std::hex
                  << got.reward_bits << "ULL, 0x" << got.cost_bits << "ULL}";
  }
}

runtime::RuntimeOptions SmallPool() {
  runtime::RuntimeOptions options;
  options.exec_threads = 2;
  return options;
}

TEST(ServeGolden, MixedTenantsEpisodeIsPinned) {
  core::SimulationConfig config;
  config.duration = SimTime{400.0};
  using workload::ArrivalPattern;
  const std::vector<TenantSpec> tenants{
      Tenant(1, "steady", ArrivalPattern::kHomogeneous, 1.0, 1.0, 4096),
      Tenant(2, "diurnal", ArrivalPattern::kDiurnal, 2.0, 1.0, 4096),
      Tenant(3, "bursty", ArrivalPattern::kBursty, 1.0, 1.5, 4096),
      Tenant(4, "flash", ArrivalPattern::kFlashCrowd, 1.0, 1.0, 4096),
  };
  ServeOptions options;
  options.global_max_in_flight = 256;
  const ServeReport report =
      RunMultiTenantServe(config, tenants, /*seed=*/7, options, SmallPool());
  ExpectGolden(report, {3960866737519377901ULL, 2304, 0x413e1a456a2415e6ULL,
                        0x414e7d74201c8a92ULL});
}

TEST(ServeGolden, OverloadEpisodeIsPinned) {
  core::SimulationConfig config;
  config.duration = SimTime{400.0};
  using workload::ArrivalPattern;
  std::vector<TenantSpec> tenants{
      Tenant(1, "heavy", ArrivalPattern::kBursty, 3.0, 4.0, 16),
      Tenant(2, "light", ArrivalPattern::kHomogeneous, 1.0, 2.0, 16),
  };
  tenants[0].pattern.mean_burst_len_tu = 5.0;
  tenants[0].pattern.mean_quiet_len_tu = 15.0;
  ServeOptions options;
  options.global_max_in_flight = 32;
  const ServeReport report =
      RunMultiTenantServe(config, tenants, /*seed=*/7, options, SmallPool());
  EXPECT_GT(report.jobs_shed, 0u) << "overload episode did not shed";
  ExpectGolden(report, {5762206053026202738ULL, 765, 0x4121844f6c81fa36ULL,
                        0x4118ddc232969754ULL});
}

}  // namespace
}  // namespace scan::serve
