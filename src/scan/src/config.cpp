#include "scan/core/config.hpp"

#include "scan/common/rng.hpp"
#include "scan/common/str.hpp"

namespace scan::core {

const char* AllocationAlgorithmName(AllocationAlgorithm a) {
  switch (a) {
    case AllocationAlgorithm::kGreedy:
      return "greedy";
    case AllocationAlgorithm::kLongTerm:
      return "long-term";
    case AllocationAlgorithm::kLongTermAdaptive:
      return "long-term-adaptive";
    case AllocationAlgorithm::kBestConstant:
      return "best-constant";
  }
  return "?";
}

const char* ScalingAlgorithmName(ScalingAlgorithm s) {
  switch (s) {
    case ScalingAlgorithm::kAlwaysScale:
      return "always-scale";
    case ScalingAlgorithm::kNeverScale:
      return "never-scale";
    case ScalingAlgorithm::kPredictive:
      return "predictive";
  }
  return "?";
}

workload::RewardParams SimulationConfig::MakeRewardParams() const {
  workload::RewardParams params;
  params.scheme = reward_scheme;
  params.r_max = r_max;
  params.r_penalty = r_penalty;
  params.r_scale = r_scale;
  return params;
}

workload::ArrivalParams SimulationConfig::MakeArrivalParams() const {
  workload::ArrivalParams params;
  params.mean_interarrival_tu = mean_interarrival_tu;
  params.mean_jobs_per_arrival = mean_jobs_per_arrival;
  params.jobs_per_arrival_variance = jobs_per_arrival_variance;
  params.mean_job_size = mean_job_size;
  params.job_size_variance = job_size_variance;
  return params;
}

cloud::CloudConfig SimulationConfig::MakeCloudConfig() const {
  cloud::CloudConfig config;
  config.private_tier.cost_per_core_tu = Cost{private_cost_per_core_tu};
  config.private_tier.core_capacity = private_capacity_cores;
  config.public_tier.cost_per_core_tu = Cost{public_cost_per_core_tu};
  config.instance_sizes = instance_sizes;
  config.boot_penalty = boot_penalty;
  return config;
}

std::string SimulationConfig::Label() const {
  return StrFormat("alloc=%s scale=%s interval=%.2f reward=%s pubcost=%.0f",
                   AllocationAlgorithmName(allocation),
                   ScalingAlgorithmName(scaling), mean_interarrival_tu,
                   workload::RewardSchemeName(reward_scheme),
                   public_cost_per_core_tu);
}

std::uint64_t SimulationConfig::SeedFor(int rep) const {
  return MixSeed(MixSeed(base_seed, Fnv1a64(Label())),
                 static_cast<std::uint64_t>(rep));
}

std::vector<SimulationConfig> Table1Grid::Expand(
    const SimulationConfig& base) const {
  std::vector<SimulationConfig> configs;
  configs.reserve(allocations.size() * scalings.size() *
                  mean_intervals.size() * reward_schemes.size() *
                  public_costs.size());
  for (const AllocationAlgorithm alloc : allocations) {
    for (const ScalingAlgorithm scale : scalings) {
      for (const double interval : mean_intervals) {
        for (const workload::RewardScheme scheme : reward_schemes) {
          for (const double cost : public_costs) {
            SimulationConfig config = base;
            config.allocation = alloc;
            config.scaling = scale;
            config.mean_interarrival_tu = interval;
            config.reward_scheme = scheme;
            config.public_cost_per_core_tu = cost;
            configs.push_back(std::move(config));
          }
        }
      }
    }
  }
  return configs;
}

}  // namespace scan::core
