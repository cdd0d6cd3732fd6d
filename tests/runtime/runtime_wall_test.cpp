// WallClock smoke tests: the runtime as a real concurrent system, with
// stage tasks burning actual CPU for their (scaled-down) modeled
// durations. These runs are nondeterministic by design; the assertions
// check liveness and accounting sanity, not exact numbers. The modeled
// horizon is mapped to a few hundred milliseconds of wall time so the
// suite stays fast; the TSan CI job runs exactly these tests to hunt
// races in the worker/completion-queue machinery.

#include <gtest/gtest.h>

#include "scan/gatk/pipeline_model.hpp"
#include "scan/runtime/runtime_platform.hpp"

namespace scan::runtime {
namespace {

// The modeled load must fit the *physical* execution pool: every stage
// task burns threads x exec_time of real CPU, so wall runs use a light
// arrival process and a one-thread-per-stage plan. (The simulator's
// default sweep load models ~30 concurrent cores, which no test-sized
// pool can serve in real time.)
core::SimulationConfig WallConfig(double duration_tu) {
  core::SimulationConfig config;
  config.duration = SimTime{duration_tu};
  config.mean_interarrival_tu = 8.0;
  config.mean_jobs_per_arrival = 1.0;
  config.jobs_per_arrival_variance = 0.0;
  config.mean_job_size = 3.0;  // shorter stages: margin on small CI boxes
  return config;
}

RuntimeOptions WallOptions() {
  RuntimeOptions options;
  options.clock = ClockMode::kWall;
  options.wall_seconds_per_tu = 0.002;  // 150 TU -> ~0.3 s wall
  options.exec_threads = 8;
  options.forced_plan = core::ThreadPlan(7, 1);
  return options;
}

TEST(RuntimeWallClock, CompletesJobsInRealTime) {
  RuntimePlatform platform(WallConfig(150.0),
                           gatk::PipelineModel::PaperGatk(), 0x57EE1,
                           WallOptions());
  const RuntimeReport report = platform.Serve();

  EXPECT_EQ(report.clock, ClockMode::kWall);
  EXPECT_GT(report.metrics.jobs_arrived, 0u);
  EXPECT_GT(report.metrics.jobs_completed, 0u);
  EXPECT_LE(report.metrics.jobs_completed, report.metrics.jobs_arrived);
  EXPECT_GT(report.stage_tasks_dispatched, 0u);
  // Every stage task fans out >= 1 slice onto the pool.
  EXPECT_GE(report.pool_tasks_executed, report.stage_tasks_dispatched);
  EXPECT_GT(report.metrics.total_cost, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.jobs_per_second(), 0.0);
  EXPECT_GT(report.dispatch_micros.count(), 0u);
}

TEST(RuntimeWallClock, SurvivesFailureInjection) {
  core::SimulationConfig config = WallConfig(150.0);
  config.worker_failure_rate = 0.05;
  RuntimePlatform platform(config, gatk::PipelineModel::PaperGatk(), 0x57EE2,
                           WallOptions());
  const RuntimeReport report = platform.Serve();

  EXPECT_GT(report.metrics.jobs_arrived, 0u);
  EXPECT_GT(report.metrics.jobs_completed, 0u);
  // Crashed assignments re-enqueue their stage; retries match failures.
  EXPECT_EQ(report.metrics.task_retries, report.metrics.worker_failures);
}

TEST(RuntimeWallClock, PredictiveScalingServes) {
  core::SimulationConfig config = WallConfig(120.0);
  config.scaling = core::ScalingAlgorithm::kPredictive;
  RuntimeOptions options = WallOptions();
  options.forced_plan.reset();  // let the policy pick plans for real
  RuntimePlatform platform(config, gatk::PipelineModel::PaperGatk(), 0x57EE3,
                           options);
  const RuntimeReport report = platform.Serve();
  EXPECT_GT(report.metrics.jobs_completed, 0u);
}

TEST(RuntimeWallClock, TimelineSamplingRecordsPoints) {
  RuntimeOptions options = WallOptions();
  options.timeline_sample_period = SimTime{20.0};
  RuntimePlatform platform(WallConfig(120.0),
                           gatk::PipelineModel::PaperGatk(), 0x57EE4,
                           options);
  const RuntimeReport report = platform.Serve();
  EXPECT_FALSE(report.metrics.timeline.empty());
  // Samples are taken when their modeled instant has passed on the wall
  // clock, so timestamps are monotone.
  for (std::size_t i = 1; i < report.metrics.timeline.size(); ++i) {
    EXPECT_GE(report.metrics.timeline[i].time.value(),
              report.metrics.timeline[i - 1].time.value());
  }
}

}  // namespace
}  // namespace scan::runtime
