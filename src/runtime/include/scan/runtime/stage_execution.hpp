#pragma once

// Physical execution of one stage task: the runtime analogue of the
// simulator's terminal event. Where the simulator merely schedules the
// end of an assignment, the runtime executes the task as `slices` parallel
// slices on its shared execution pool — modeling the paper's multithreaded
// stage execution (T_i(t, d)) with real concurrency — and the last slice
// to finish reports the task's ticket over the bounded completion queue.
//
// Execution is stateless: the engine core owns every worker book, and a
// launch holds nothing once it returns. Slices share ownership of their
// slice group and capture the kernel by value, so a task whose worker was
// crashed by failure injection simply runs out and reports a ticket the
// coordinator discards.

#include <cstdint>

#include "scan/concurrency/thread_pool.hpp"
#include "scan/runtime/clock.hpp"
#include "scan/runtime/completion_queue.hpp"

namespace scan::runtime {

/// One stage task handed to the pool for physical execution.
struct StageTask {
  std::uint64_t ticket = 0;
  /// Parallel slices to execute (= the worker's thread configuration).
  int slices = 1;
  /// Real seconds each slice sleeps before starting (boot/reconfiguration
  /// delay on the wall clock; 0 on the virtual clock).
  double pre_delay_seconds = 0.0;
  /// Real seconds of CPU each slice burns (the task's modeled duration
  /// mapped to wall time; 0 = token burn on the virtual clock).
  double burn_seconds = 0.0;
  /// Modeled start instant and duration (TU) — carried along so executor
  /// threads can stamp their kStageSlice trace spans with simulation time
  /// (the scan_obs determinism contract forbids wall-time stamps).
  double sim_start_tu = 0.0;
  double sim_exec_tu = 0.0;
  /// The exec attempt span this task belongs to: each kStageSlice event
  /// mints SliceSpan(ticket, slice) and points its parent here, stitching
  /// executor-thread slices into the causal span graph.
  std::uint64_t parent_span = 0;
};

/// Launches the task's slices on `pool`; the last slice to finish pushes
/// {task.ticket} to `completions`. Returns once every slice is submitted.
void LaunchStageTask(const StageTask& task, ThreadPool& pool,
                     CompletionQueue& completions, SpinKernel kernel);

}  // namespace scan::runtime
