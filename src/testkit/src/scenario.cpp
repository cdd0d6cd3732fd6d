#include "scan/testkit/scenario.hpp"

#include <atomic>
#include <mutex>
#include <optional>
#include <utility>

#include "scan/common/rng.hpp"
#include "scan/common/str.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/pdl/compiler.hpp"
#include "scan/pdl/fuzzer.hpp"
#include "scan/testkit/oracle.hpp"

namespace scan::testkit {

core::SimulationConfig DrawScenario(std::uint64_t seed,
                                    const ScenarioOptions& options) {
  RandomStream rng(seed, "testkit-scenario");
  core::SimulationConfig config;

  // Table I axes.
  config.allocation = static_cast<core::AllocationAlgorithm>(
      rng.UniformBelow(4));
  config.scaling = static_cast<core::ScalingAlgorithm>(rng.UniformBelow(3));
  config.mean_interarrival_tu = rng.Uniform(2.0, 3.0);
  config.reward_scheme =
      static_cast<workload::RewardScheme>(rng.UniformBelow(2));
  const double public_costs[] = {20.0, 50.0, 80.0, 110.0};
  config.public_cost_per_core_tu = public_costs[rng.UniformBelow(4)];

  // Engine knobs the paper holds fixed — fuzzed here on purpose.
  config.duration =
      SimTime{rng.Uniform(options.min_duration.value(),
                          options.max_duration.value())};
  config.worker_failure_rate =
      rng.Uniform() < 0.5 ? 0.0
                          : rng.Uniform(0.001, options.max_failure_rate);
  config.boot_penalty = SimTime{rng.Uniform(0.0, options.max_boot_penalty)};
  const std::size_t capacities[] = {16, 32, 48, 64, 96};
  config.private_capacity_cores = capacities[rng.UniformBelow(5)];
  config.idle_release_timeout = SimTime{rng.Uniform(0.5, 3.0)};
  config.mean_job_size = rng.Uniform(3.0, 7.0);
  config.mean_jobs_per_arrival = rng.Uniform(1.0, 5.0);

  // Fault-recovery axes (opt-in; appended after every legacy draw so the
  // pre-fault corpus reproduces unchanged when the flag is off). Each knob
  // consumes a fixed number of draws regardless of the coin so scenarios
  // stay comparable across option tweaks.
  if (options.draw_fault_knobs) {
    fault::FaultConfig& f = config.fault;
    const bool ckpt = rng.Uniform() < 0.5;
    const double ckpt_interval = rng.Uniform(0.2, 1.0);
    if (ckpt) f.checkpoint_interval = SimTime{ckpt_interval};
    const bool straggle = rng.Uniform() < 0.7;
    const double straggle_rate = rng.Uniform(0.05, 0.3);
    const double straggle_factor = rng.Uniform(1.5, 4.0);
    if (straggle) {
      f.straggle_rate = straggle_rate;
      f.straggle_factor = straggle_factor;
    }
    const bool flap = rng.Uniform() < 0.7;
    const double flap_rate = rng.Uniform(0.005, 0.02);
    if (flap) f.flap_rate = flap_rate;
    const bool speculate = rng.Uniform() < 0.5;
    const double slowdown = rng.Uniform(1.2, 2.0);
    if (straggle && speculate) f.speculation_slowdown = slowdown;
    const bool budget = rng.Uniform() < 0.5;
    const int max_retries = 4 + static_cast<int>(rng.UniformBelow(8));
    if (budget) f.max_retries_per_job = max_retries;
    const bool backoff = rng.Uniform() < 0.5;
    const double backoff_base = rng.Uniform(0.05, 0.4);
    if (backoff) f.backoff_base = SimTime{backoff_base};
    const bool breaker = rng.Uniform() < 0.5;
    const int threshold = 2 + static_cast<int>(rng.UniformBelow(3));
    const double cooldown = rng.Uniform(5.0, 20.0);
    if (breaker && flap) {
      f.breaker_threshold = threshold;
      f.breaker_cooldown = SimTime{cooldown};
    }
  }

  // Calendar-stress axis (opt-in, appended after the fault block so every
  // earlier corpus reproduces draw for draw): bursty simultaneous events
  // and cancellation churn for the ladder calendar. Fixed draw count,
  // like the fault knobs.
  if (options.stress_calendar) {
    config.mean_interarrival_tu = rng.Uniform(0.05, 0.5);
    config.mean_jobs_per_arrival = rng.Uniform(8.0, 24.0);
    config.idle_release_timeout = SimTime{rng.Uniform(0.05, 0.5)};
    // Short horizon: the burst regime packs an order of magnitude more
    // events per time unit, so suites stay fast.
    config.duration = SimTime{rng.Uniform(15.0, 40.0)};
  }

  config.base_seed = MixSeed(seed, 0x5ce9a21af1u);
  return config;
}

StressResult StressScenario(const core::SimulationConfig& config,
                            std::uint64_t seed,
                            const ScenarioOptions& options) {
  StressResult result;
  result.seed = seed;
  result.config = config;

  // The stage model: the hardcoded GATK chain, or — when the options ask
  // for it — a fuzzer-drawn PDL pipeline from its own named stream (no
  // draw is taken from any scenario stream).
  std::optional<gatk::PipelineModel> drawn;
  if (options.draw_pdl_pipelines) {
    RandomStream pdl_rng(seed, "pdl-fuzzer");
    result.pdl_source = pdl::DrawPipelineSource(pdl_rng);
    pdl::CompileResult compiled =
        pdl::CompileString(result.pdl_source, "<pdl-fuzzer>");
    if (!compiled.ok()) {
      result.violations.push_back(
          "pdl fuzzer drew an invalid pipeline:\n" +
          pdl::FormatDiagnostics(compiled.diagnostics));
      return result;
    }
    drawn = std::move(compiled.pipeline->model);
  }
  const gatk::PipelineModel model =
      drawn.has_value() ? std::move(*drawn) : gatk::PipelineModel::PaperGatk();

  InvariantOracle oracle(config);
  core::SchedulerOptions run_options;
  run_options.timeline_sample_period = SimTime{10.0};
  oracle.Attach(run_options);
  result.run = RunInstrumented(config, model, seed, run_options);
  result.events_checked = oracle.events_checked();
  result.violations = oracle.violations();
  if (!oracle.ok() && result.violations.empty()) {
    result.violations.push_back("unrecorded violations (cap exceeded)");
  }

  if (options.check_determinism) {
    core::SchedulerOptions replay_options;
    replay_options.timeline_sample_period = SimTime{10.0};
    const InstrumentedRun replay =
        RunInstrumented(config, model, seed, replay_options);
    result.determinism_diff =
        result.run.fingerprint.DiffAgainst(replay.fingerprint);
    if (result.run.trace_digest != replay.trace_digest ||
        result.run.trace_events != replay.trace_events) {
      result.determinism_diff.push_back(StrFormat(
          "trace: %llu events 0x%016llx != %llu events 0x%016llx",
          static_cast<unsigned long long>(result.run.trace_events),
          static_cast<unsigned long long>(result.run.trace_digest),
          static_cast<unsigned long long>(replay.trace_events),
          static_cast<unsigned long long>(replay.trace_digest)));
    }
  }
  return result;
}

std::string StressResult::Describe() const {
  std::string out = StrFormat(
      "scenario seed=%llu [%s/%s interval=%.2f %s pub=%.0f dur=%.0f "
      "fail=%.3f boot=%.2f cap=%zu]: %llu events, %zu violations",
      static_cast<unsigned long long>(seed),
      core::AllocationAlgorithmName(config.allocation),
      core::ScalingAlgorithmName(config.scaling),
      config.mean_interarrival_tu,
      workload::RewardSchemeName(config.reward_scheme),
      config.public_cost_per_core_tu, config.duration.value(),
      config.worker_failure_rate, config.boot_penalty.value(),
      config.private_capacity_cores,
      static_cast<unsigned long long>(events_checked), violations.size());
  for (const std::string& violation : violations) {
    out += "\n    " + violation;
  }
  for (const std::string& diff : determinism_diff) {
    out += "\n    determinism: " + diff;
  }
  if (!pdl_source.empty() && !(violations.empty() && determinism_diff.empty())) {
    out += "\n    pipeline under test:\n" + pdl_source;
  }
  return out;
}

std::vector<StressResult> StressSweep(std::uint64_t base_seed, int count,
                                      const ScenarioOptions& options) {
  std::vector<StressResult> results;
  results.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = MixSeed(base_seed, static_cast<std::uint64_t>(i));
    results.push_back(
        StressScenario(DrawScenario(seed, options), seed, options));
  }
  return results;
}

namespace {

/// Mirrors the experiment driver's per-run aggregation (experiment.cpp).
void Absorb(core::AggregateMetrics& agg, const core::RunMetrics& run) {
  agg.profit_per_run.Add(run.profit_per_run());
  agg.reward_to_cost.Add(run.reward_to_cost());
  agg.mean_latency.Add(run.latency.mean());
  agg.jobs_completed.Add(static_cast<double>(run.jobs_completed));
  agg.total_reward.Add(run.total_reward);
  agg.total_cost.Add(run.total_cost);
  agg.public_hires.Add(static_cast<double>(run.public_hires));
  agg.mean_core_stages.Add(run.core_stages.mean());
}

}  // namespace

VerifiedSweep RunSweepVerified(const std::vector<core::SimulationConfig>& configs,
                               int repetitions, ThreadPool& pool,
                               const core::SchedulerOptions& base_options) {
  VerifiedSweep sweep;
  if (repetitions <= 0) return sweep;
  const std::size_t reps = static_cast<std::size_t>(repetitions);

  std::vector<core::RunMetrics> cells(configs.size() * reps);
  std::atomic<std::uint64_t> events{0};
  std::atomic<std::uint64_t> violation_count{0};
  std::mutex violations_mutex;
  constexpr std::size_t kMaxRecorded = 32;

  ParallelFor(pool, 0, cells.size(), [&](std::size_t index) {
    const std::size_t config_index = index / reps;
    const int rep = static_cast<int>(index % reps);
    const core::SimulationConfig& config = configs[config_index];

    InvariantOracle oracle(config);
    core::SchedulerOptions options = base_options;
    oracle.Attach(options);
    const InstrumentedRun run =
        RunInstrumented(config, config.SeedFor(rep), std::move(options));
    cells[index] = run.metrics;

    events.fetch_add(oracle.events_checked(), std::memory_order_relaxed);
    if (!oracle.ok()) {
      violation_count.fetch_add(oracle.violation_count(),
                                std::memory_order_relaxed);
      const std::scoped_lock lock(violations_mutex);
      for (const std::string& violation : oracle.violations()) {
        if (sweep.violations.size() >= kMaxRecorded) break;
        sweep.violations.push_back(
            StrFormat("%s rep %d: %s", config.Label().c_str(), rep,
                      violation.c_str()));
      }
    }
  });

  sweep.runs = cells.size();
  sweep.events_checked = events.load();
  sweep.violation_count = violation_count.load();
  sweep.aggregates.resize(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    sweep.aggregates[c].config = configs[c];
    for (std::size_t k = 0; k < reps; ++k) {
      Absorb(sweep.aggregates[c], cells[c * reps + k]);
    }
  }
  return sweep;
}

}  // namespace scan::testkit
