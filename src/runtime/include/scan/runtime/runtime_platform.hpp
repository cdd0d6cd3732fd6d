#pragma once

// The live SCAN platform: the engine core (scan/core/engine_core.hpp)
// driven by real OS threads instead of a modeled completion.
//
// Architecture (one coordinator, many executors):
//  - The coordinator thread owns the EngineCore — every scheduling
//    decision and all bookkeeping: stage queues, worker books, the cloud
//    ledger, the shared SchedulingPolicy, and the control-event calendar.
//    These are the very objects the discrete-event Scheduler drives; the
//    runtime adds only what is physical.
//  - Each assignment executes as `threads` parallel slices on a shared
//    execution ThreadPool (LaunchStageTask), and its last slice reports a
//    completion ticket over a bounded MPSC CompletionQueue.
//  - In virtual mode the calendar's time is the clock. Each assignment's
//    terminal instant is known at dispatch, and its calendar event *gates
//    on the physical completion message* before the core sees it.
//    Decisions therefore happen in exactly the simulator's event order —
//    with pinned seeds a run produces the identical schedule, which
//    scan_testkit's parity oracle cross-validates bit for bit.
//  - In wall mode the runtime is a real concurrent system: stage tasks
//    burn CPU for their modeled duration (mapped onto wall seconds), the
//    calendar fires control events once the WallClock reaches them, and
//    completions are handed to the core in physical arrival order. Runs
//    are not deterministic; this mode measures dispatch latency/throughput
//    and gives ThreadSanitizer real interleavings.

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "scan/common/stats.hpp"
#include "scan/concurrency/thread_pool.hpp"
#include "scan/core/config.hpp"
#include "scan/core/engine_core.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/runtime/clock.hpp"
#include "scan/runtime/completion_queue.hpp"
#include "scan/runtime/ingest.hpp"
#include "scan/workload/trace.hpp"

namespace scan::runtime {

/// Knobs of one live run (the runtime analogue of SchedulerOptions).
struct RuntimeOptions {
  ClockMode clock = ClockMode::kVirtual;
  /// WallClock only: real seconds per simulated TU. The default maps a
  /// 200 TU smoke run onto ~0.4 s of wall time.
  double wall_seconds_per_tu = 0.002;
  /// Execution pool size (0 = hardware concurrency).
  std::size_t exec_threads = 0;
  std::optional<core::ThreadPlan> forced_plan;
  /// Replay this recorded workload instead of the synthetic arrivals.
  std::optional<workload::JobTrace> trace;
  /// Streaming ingest source (not owned; must outlive the platform).
  /// When set it replaces both the synthetic generator and `trace`: the
  /// platform pulls batches one at a time and reports every job outcome
  /// back, so a front end can meter admission against completions.
  IngestSource* ingest = nullptr;
  /// Record the parity payload (RunMetrics::stage_schedule et al.).
  bool record_schedule = false;
  /// When positive, sample a TimelinePoint every this many TU.
  SimTime timeline_sample_period{0.0};
};

/// What one live run produced: the simulator-shaped metrics plus the
/// runtime-only measurements (wall time, dispatch latency, pool load).
struct RuntimeReport {
  core::RunMetrics metrics;
  double wall_seconds = 0.0;
  /// Coordinator time per dispatch round (TryDispatchAll), microseconds.
  RunningStats dispatch_micros;
  std::uint64_t stage_tasks_dispatched = 0;
  /// Pool-level slice tasks executed over the run.
  std::uint64_t pool_tasks_executed = 0;
  std::size_t peak_pool_queue_depth = 0;
  std::size_t exec_threads = 0;
  ClockMode clock = ClockMode::kVirtual;

  [[nodiscard]] double jobs_per_second() const {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(metrics.jobs_completed) / wall_seconds;
  }
};

/// One live SCAN deployment. Construct, then Serve() exactly once.
class RuntimePlatform : private core::EngineDriver {
 public:
  RuntimePlatform(const core::SimulationConfig& config,
                  gatk::PipelineModel model, std::uint64_t seed,
                  RuntimeOptions options = {});
  ~RuntimePlatform();

  RuntimePlatform(const RuntimePlatform&) = delete;
  RuntimePlatform& operator=(const RuntimePlatform&) = delete;

  /// Runs the platform for config.duration (modeled TU) and returns the
  /// report. Cloud cost is settled exactly at the horizon, as in the
  /// simulator.
  [[nodiscard]] RuntimeReport Serve();

  /// The plan the shared policy produces right now (exposed for tests).
  [[nodiscard]] core::ThreadPlan PlanFor(DataSize size) const {
    return core_.PlanFor(size);
  }

 private:
  /// One dispatched physical task, keyed by ticket. `orphaned` marks a
  /// wall-mode task whose modeled crash or flap already fired: its
  /// eventual completion message is drained and discarded.
  struct TicketState {
    core::TaskEnd end;
    std::uint64_t span = 0;  ///< exec attempt span (kTicketDelivery)
    bool orphaned = false;
  };

  /// The calendar's time in virtual mode, the WallClock's in wall mode.
  [[nodiscard]] SimTime Now() const override;
  /// Launches the assignment's slices and arranges delivery of its end.
  void StartExecution(const core::Assignment& assignment) override;

  /// Wall mode's loop: fires due control events, hands completions to
  /// the core as they arrive, and sleeps on the completion queue between.
  void RunWall();

  /// Blocks until the worker message for `ticket` has been consumed,
  /// draining (and stashing) other tickets that arrive first. Virtual
  /// mode only: this is the gate that makes real threads replay the
  /// modeled timeline.
  void WaitForTicket(std::uint64_t ticket);
  /// Emits the kTicketDelivery trace event for `ticket`.
  void TraceDelivery(std::uint64_t ticket);
  void HandleWallCompletion(const TaskCompletion& completion);
  /// Wall mode: a modeled crash or flap came due. A physical completion
  /// that beat it wins; otherwise the task is orphaned and the core told.
  void WallFaultDue(std::uint64_t ticket);
  /// Consumes every message still owed by dispatched tasks (end of run).
  void DrainInFlight();

  RuntimeOptions options_;
  core::EngineCore core_;
  bool ran_ = false;

  // --- physical execution ---
  std::optional<WallClock> wclock_;  ///< set for a wall-mode Serve()
  SpinKernel kernel_;
  CompletionQueue completions_;
  std::unordered_map<std::uint64_t, TicketState> in_flight_;
  std::unordered_set<std::uint64_t> reaped_;  ///< popped ahead of their gate
  std::uint64_t next_ticket_ = 1;
  std::size_t unconsumed_ = 0;  ///< tickets dispatched, message not popped

  // --- runtime-only measurements ---
  std::uint64_t stage_tasks_dispatched_ = 0;
  std::size_t peak_pool_queue_depth_ = 0;

  /// Declared last: its destructor joins executor threads that may still
  /// touch completions_.
  std::unique_ptr<ThreadPool> exec_pool_;
};

}  // namespace scan::runtime
