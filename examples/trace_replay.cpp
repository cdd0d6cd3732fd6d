// Trace-driven what-if analysis: record (or load) a workload trace, then
// replay the *same* submissions under each scaling policy and dump a
// utilization timeline.
//
//   $ ./trace_replay                 # synthesize a 1500-TU trace and replay
//   $ ./trace_replay my_trace.csv    # replay a recorded "time,size" CSV
//
// Writes trace_timeline.csv with the predictive run's sampled queue /
// worker / cost-rate series.

#include <cstdio>
#include <fstream>
#include <sstream>

#include "scan/core/scheduler.hpp"
#include "scan/workload/trace.hpp"

using namespace scan;
using namespace scan::core;

int main(int argc, char** argv) {
  // 1. Obtain a trace: load from CSV or record the synthetic process.
  workload::JobTrace trace;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    auto parsed = workload::ParseJobTrace(buffer.str());
    if (!parsed.ok()) {
      std::fprintf(stderr, "trace parse failed: %s\n",
                    parsed.status().ToString().c_str());
      return 1;
    }
    trace = std::move(parsed.value());
  } else {
    workload::ArrivalParams params;
    params.mean_interarrival_tu = 2.2;
    workload::ArrivalGenerator generator(params, 2026);
    trace = workload::RecordTrace(generator, SimTime{1'500.0});
  }
  std::printf("trace: %zu jobs, %.1f GB total, mean batch interval %.2f "
              "TU\n\n",
              trace.jobs.size(), trace.TotalSize(),
              trace.MeanBatchInterval());

  // 2. Replay the identical workload under each policy.
  SimulationConfig config;
  config.duration = SimTime{2'000.0};
  std::printf("policy          profit/run   latency   public-hires\n");
  std::printf("---------------------------------------------------\n");
  for (const ScalingAlgorithm scaling :
       {ScalingAlgorithm::kNeverScale, ScalingAlgorithm::kAlwaysScale,
        ScalingAlgorithm::kPredictive}) {
    config.scaling = scaling;
    SchedulerOptions options;
    options.trace = trace;
    if (scaling == ScalingAlgorithm::kPredictive) {
      options.timeline_sample_period = SimTime{10.0};
    }
    Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(),
                        config.SeedFor(0), options);
    const RunMetrics metrics = scheduler.Run();
    std::printf("%-14s  %9.1f  %7.1f  %12zu\n",
                ScalingAlgorithmName(scaling), metrics.profit_per_run(),
                metrics.latency.mean(), metrics.public_hires);

    // 3. Dump the predictive run's timeline for plotting.
    if (!metrics.timeline.empty()) {
      std::ofstream csv("trace_timeline.csv");
      csv << "time_tu,queued_jobs,busy_workers,idle_workers,private_cores,"
             "public_cores,cost_rate\n";
      for (const TimelinePoint& p : metrics.timeline) {
        csv << p.time.value() << ',' << p.queued_jobs << ','
            << p.busy_workers << ',' << p.idle_workers << ','
            << p.private_cores << ',' << p.public_cores << ','
            << p.cost_rate << '\n';
      }
    }
  }
  std::printf("\npredictive run's timeline written to trace_timeline.csv\n");
  return 0;
}
