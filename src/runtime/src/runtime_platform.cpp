#include "scan/runtime/runtime_platform.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "scan/common/log.hpp"
#include "scan/obs/span.hpp"
#include "scan/obs/trace.hpp"
#include "scan/runtime/stage_execution.hpp"

namespace scan::runtime {

namespace {

/// Completion channel bound (producer backpressure threshold).
constexpr std::size_t kCompletionCapacity = 1024;

/// The engine-core share of the runtime's options.
core::SchedulerOptions CoreOptions(const RuntimeOptions& options) {
  core::SchedulerOptions core;
  core.forced_plan = options.forced_plan;
  if (options.ingest == nullptr) core.trace = options.trace;
  core.timeline_sample_period = options.timeline_sample_period;
  core.record_schedule = options.record_schedule;
  return core;
}

}  // namespace

RuntimePlatform::RuntimePlatform(const core::SimulationConfig& config,
                                 gatk::PipelineModel model,
                                 std::uint64_t seed, RuntimeOptions options)
    : options_(std::move(options)),
      core_(config, std::move(model), seed, CoreOptions(options_), *this,
            options_.ingest),
      kernel_(options_.clock == ClockMode::kWall ? SpinKernel::Calibrate()
                                                 : SpinKernel{}),
      completions_(kCompletionCapacity) {
  core_.TimeDispatchRounds();
  exec_pool_ = std::make_unique<ThreadPool>(options_.exec_threads);
}

RuntimePlatform::~RuntimePlatform() = default;

SimTime RuntimePlatform::Now() const {
  return wclock_ ? wclock_->Now() : core_.calendar().Now();
}

RuntimeReport RuntimePlatform::Serve() {
  if (ran_) throw std::logic_error("RuntimePlatform::Serve: already ran");
  ran_ = true;

  // The wall clock starts here, not at construction: wall time must be
  // zero at the first admission decision.
  if (options_.clock == ClockMode::kWall) {
    wclock_.emplace(options_.wall_seconds_per_tu);
  }
  const auto wall_start = std::chrono::steady_clock::now();

  core_.Start();
  if (wclock_) {
    RunWall();
  } else {
    // Virtual time is the calendar's: the simulator's own loop.
    core_.calendar().RunUntil(core_.config().duration);
  }

  // Every dispatched task still owes a message (e.g. tasks orphaned by a
  // crash, or slices finishing just past the horizon); consume them all
  // before the pool can be considered quiescent.
  DrainInFlight();
  exec_pool_->WaitIdle();

  RuntimeReport report;
  report.metrics = core_.Finish();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  report.wall_seconds = wall.count();
  report.dispatch_micros = core_.dispatch_micros();
  report.stage_tasks_dispatched = stage_tasks_dispatched_;
  report.pool_tasks_executed = exec_pool_->tasks_executed();
  report.peak_pool_queue_depth = peak_pool_queue_depth_;
  report.exec_threads = exec_pool_->thread_count();
  report.clock = options_.clock;
  return report;
}

void RuntimePlatform::StartExecution(const core::Assignment& assignment) {
  const core::TaskEnd& end = assignment.end;
  const std::uint64_t ticket = next_ticket_++;
  const std::uint64_t span = obs::StageSpan(end.job_id, end.stage, end.epoch,
                                            assignment.speculative);
  in_flight_.emplace(ticket, TicketState{end, span, false});
  ++unconsumed_;
  ++stage_tasks_dispatched_;

  // Physical dispatch. On the virtual clock the slices do token work; on
  // the wall clock they burn the (straggle-extended) duration in real CPU,
  // and the boot delay becomes a real sleep.
  const double seconds_per_tu = wclock_ ? wclock_->seconds_per_tu() : 0.0;
  const SimTime actual_exec = assignment.actual_end - end.start;
  StageTask task;
  task.ticket = ticket;
  task.slices = assignment.threads;
  task.parent_span = span;
  task.pre_delay_seconds =
      (end.start - assignment.dispatched).value() * seconds_per_tu;
  task.burn_seconds = actual_exec.value() * seconds_per_tu;
  task.sim_start_tu = end.start.value();
  task.sim_exec_tu = actual_exec.value();
  LaunchStageTask(task, *exec_pool_, completions_, kernel_);
  peak_pool_queue_depth_ =
      std::max(peak_pool_queue_depth_, exec_pool_->queue_depth());

  sim::Simulator& calendar = core_.calendar();
  if (!wclock_) {
    // The end (completion, crash or flap) is a calendar event at its
    // modeled instant, gated on the physical completion message.
    calendar.ScheduleAt(assignment.end_at, [this, ticket](sim::Simulator&) {
      WaitForTicket(ticket);
      const auto it = in_flight_.find(ticket);
      const core::TaskEnd done = it->second.end;
      in_flight_.erase(it);
      core_.EndTask(done);
    });
    return;
  }
  // Wall clock: the completion is handled when its message physically
  // arrives; only a modeled crash or flap needs a calendar entry.
  if (end.kind != core::TaskEndKind::kComplete) {
    calendar.ScheduleAt(assignment.end_at, [this, ticket](sim::Simulator&) {
      WallFaultDue(ticket);
    });
  }
}

void RuntimePlatform::RunWall() {
  sim::Simulator& calendar = core_.calendar();
  const SimTime horizon = core_.config().duration;
  for (;;) {
    // Fire every control event whose modeled instant has passed.
    while (calendar.NextEventTime() <= horizon &&
           calendar.NextEventTime() <= wclock_->Now()) {
      calendar.Step();
    }
    if (wclock_->Now() >= horizon) break;
    // Quiescent early exit: nothing in flight and no future control event
    // inside the horizon means nothing can change any more.
    if (in_flight_.empty() && calendar.NextEventTime() > horizon) break;
    // Handle completions that already arrived; dispatches they trigger may
    // schedule new due events, so loop back around.
    bool handled = false;
    while (const auto completion = completions_.TryPop()) {
      --unconsumed_;
      HandleWallCompletion(*completion);
      handled = true;
    }
    if (handled) continue;
    // Sleep until the next control event, the horizon, or a completion —
    // whichever comes first.
    const SimTime next = std::min(horizon, calendar.NextEventTime());
    if (const auto completion =
            completions_.PopUntil(wclock_->DeadlineFor(next))) {
      --unconsumed_;
      HandleWallCompletion(*completion);
    }
  }
}

void RuntimePlatform::TraceDelivery(std::uint64_t ticket) {
  if (!obs::TraceEnabled()) return;
  const auto it = in_flight_.find(ticket);
  const std::uint64_t span =
      it != in_flight_.end() ? it->second.span : obs::kSpanNone;
  obs::TraceEmit(obs::EventKind::kTicketDelivery, Now().value(), 0, ticket, 0,
                 0.0, 0.0, span);
}

void RuntimePlatform::WaitForTicket(std::uint64_t ticket) {
  if (reaped_.erase(ticket) > 0) return;
  for (;;) {
    const TaskCompletion completion = completions_.Pop();
    --unconsumed_;
    if (completion.ticket == ticket) {
      TraceDelivery(ticket);
      return;
    }
    reaped_.insert(completion.ticket);
  }
}

void RuntimePlatform::HandleWallCompletion(const TaskCompletion& completion) {
  SetLogSimTime(Now().value());
  TraceDelivery(completion.ticket);
  const auto it = in_flight_.find(completion.ticket);
  assert(it != in_flight_.end());
  if (it == in_flight_.end()) return;
  const TicketState state = it->second;
  in_flight_.erase(it);
  if (state.orphaned) return;  // its crash or flap already fired
  // The physical completion beat any modeled crash or flap.
  core_.OnTaskComplete(state.end);
}

void RuntimePlatform::WallFaultDue(std::uint64_t ticket) {
  const auto it = in_flight_.find(ticket);
  // The physical task may have beaten the modeled fault; then the fault
  // simply does not happen (wall mode tracks physical reality).
  if (it == in_flight_.end() || it->second.orphaned) return;
  it->second.orphaned = true;
  const core::TaskEnd end = it->second.end;  // EndTask may rehash in_flight_
  core_.EndTask(end);
}

void RuntimePlatform::DrainInFlight() {
  while (unconsumed_ > 0) {
    (void)completions_.Pop();
    --unconsumed_;
  }
  reaped_.clear();
  in_flight_.clear();
}

}  // namespace scan::runtime
