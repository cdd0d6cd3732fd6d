#pragma once

// The discrete-event SCAN deployment: the engine core (engine_core.hpp,
// which also defines RunMetrics, SchedulerOptions and the inspection
// views) driven by the simulation calendar. Each assignment's terminal
// event is scheduled at the modeled instant the fault draw picked —
// completion, crash or flap — so one run is a pure function of config
// and seed.

#include <cstdint>

#include "scan/core/engine_core.hpp"
#include "scan/gatk/pipeline_model.hpp"

namespace scan::core {

/// One simulated SCAN deployment. Construct, then Run() exactly once.
class Scheduler : private EngineDriver {
 public:
  Scheduler(const SimulationConfig& config, gatk::PipelineModel model,
            std::uint64_t seed, SchedulerOptions options = {});

  /// Runs the simulation for config.duration and returns the metrics.
  /// Jobs still in flight at the horizon are not counted as completed, and
  /// cloud cost is settled exactly at the horizon.
  [[nodiscard]] RunMetrics Run();

  /// The thread plan the allocation algorithm produces for a job of the
  /// given size at the current knowledge state (exposed for tests and the
  /// experiment harness).
  [[nodiscard]] ThreadPlan PlanFor(DataSize size) const {
    return core_.PlanFor(size);
  }

 private:
  [[nodiscard]] SimTime Now() const override {
    return core_.calendar().Now();
  }
  /// Schedules the assignment's terminal event at its modeled instant.
  void StartExecution(const Assignment& assignment) override;

  EngineCore core_;
  bool ran_ = false;
};

}  // namespace scan::core
