#pragma once

// The SCAN Scheduler's mechanics (§III-A-2), shared by both engines:
// per-stage FIFO queues, a pool of worker VMs hired from the hybrid cloud,
// reward-driven hire-or-wait decisions, and per-stage thread sizing via
// the resource allocation algorithms.
//
// Mechanics of one run:
//  - Jobs arrive in batches (synthetic generator, recorded trace, or a
//    streaming IngestSource) and receive a per-stage thread plan from the
//    configured allocation algorithm.
//  - Each pipeline stage has a FIFO queue. A queued task is dispatched to
//    (in order of preference) an idle worker already configured with the
//    required thread count; an idle worker reconfigured to it (30 s
//    penalty); or a freshly hired worker — private tier when capacity
//    remains, public tier subject to the horizontal scaling algorithm:
//      * never-scale:  never hire public capacity;
//      * always-scale: hire public immediately when private is full;
//      * predictive:   hire iff the delay cost (Eq. 1) of holding the
//        queue until the next worker frees exceeds the hire cost.
//  - Workers execute one task to completion (T_i(t, d) of the pipeline
//    model); idle workers are released after a timeout.
//  - A completed pipeline run earns R(d, latency); profit is total reward
//    minus the cloud bill.
//
// One core, two drivers. EngineCore owns every piece of scheduling state
// and schedules its control events (arrivals, speculation checks, retry
// backoffs, idle releases, periodic sampling) on one sim::Simulator
// calendar. A driver supplies only the clock and the physical side of an
// assignment through EngineDriver:
//  - core::Scheduler, the discrete-event driver, reads the calendar's time
//    and schedules each assignment's terminal event at the instant the
//    fault draw picked.
//  - runtime::RuntimePlatform, the live driver, executes the assignment on
//    real threads and reports its end back through the same entry points.
// The core computes every delay as Now() + d on the driver's clock.

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "scan/cloud/cloud_manager.hpp"
#include "scan/common/stats.hpp"
#include "scan/core/allocation.hpp"
#include "scan/core/config.hpp"
#include "scan/core/ingest.hpp"
#include "scan/core/policy.hpp"
#include "scan/core/worker_index.hpp"
#include "scan/fault/health.hpp"
#include "scan/fault/injector.hpp"
#include "scan/fault/retry.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/obs/audit.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/sim/simulator.hpp"
#include "scan/workload/arrivals.hpp"
#include "scan/workload/trace.hpp"

namespace scan::core {

/// One sampled point of the run's time series (enabled via
/// SchedulerOptions::timeline_sample_period).
struct TimelinePoint {
  SimTime time{0.0};
  std::size_t queued_jobs = 0;   ///< waiting tasks across all stage queues
  std::size_t busy_workers = 0;
  std::size_t idle_workers = 0;
  std::size_t private_cores = 0; ///< cores hired on the private tier
  std::size_t public_cores = 0;
  double cost_rate = 0.0;        ///< CU per TU burn rate
};

/// One task assignment, recorded when record_schedule is enabled. This is
/// the parity payload between the simulator and the live runtime: for
/// pinned seeds on the runtime's virtual clock, both must produce the
/// identical sequence of StageRecords.
struct StageRecord {
  std::uint64_t job_id = 0;
  std::size_t stage = 0;
  std::uint64_t worker_key = 0;
  int threads = 0;
  SimTime dispatched{0.0};  ///< the dispatch decision instant
  SimTime start{0.0};       ///< includes any boot/reconfiguration delay
  SimTime end{0.0};         ///< planned completion (actual, on a virtual clock)
  /// The assignment ends in an injected worker crash instead of completing
  /// (known at assignment time: the failure draw precedes the finish).
  bool preempted_by_failure = false;
};

/// One completed pipeline run, recorded when record_schedule is enabled.
struct JobCompletionRecord {
  std::uint64_t job_id = 0;
  SimTime finished{0.0};
  SimTime latency{0.0};
  double reward = 0.0;
};

/// Metrics of one simulation run.
struct RunMetrics {
  std::size_t jobs_arrived = 0;
  std::size_t jobs_completed = 0;
  double total_reward = 0.0;
  double total_cost = 0.0;
  cloud::CostReport cost_report;
  RunningStats latency;        ///< completed-job latencies (TU)
  RunningStats queue_wait;     ///< per-dispatch queue waits (TU)
  /// Queue waits split per pipeline stage (index = 0-based stage).
  std::vector<RunningStats> stage_queue_wait;
  /// Per-worker lifetime utilization (busy time / hired time), recorded
  /// when a worker is released — the paper's worker feedback signal.
  RunningStats worker_utilization;
  RunningStats core_stages;    ///< TotalCoreStages of completed jobs' plans
  std::size_t private_hires = 0;
  std::size_t public_hires = 0;
  std::size_t reconfigurations = 0;
  std::size_t releases = 0;
  std::size_t worker_failures = 0;  ///< injected crashes (failure model)
  std::size_t task_retries = 0;     ///< tasks re-enqueued after a loss
  // --- fault-model counters (all zero with fault injection off) --------
  std::size_t worker_flaps = 0;         ///< task dropped, worker survived
  std::size_t breaker_opens = 0;        ///< circuit-breaker openings
  std::size_t checkpoints_saved = 0;    ///< losses resumed from checkpoint
  std::size_t speculative_launches = 0; ///< straggler copies enqueued
  std::size_t speculative_wasted = 0;   ///< stale duplicate completions
  std::size_t straggles_injected = 0;   ///< assignments slowed down
  std::size_t jobs_abandoned = 0;       ///< retry budget exhausted
  SimTime duration{0.0};
  /// Sampled time series; empty unless timeline sampling was enabled.
  std::vector<TimelinePoint> timeline;
  /// Every task assignment / completed job, in event order; empty unless
  /// record_schedule was enabled (the sim<->runtime parity payload).
  std::vector<StageRecord> stage_schedule;
  std::vector<JobCompletionRecord> job_completions;

  [[nodiscard]] double profit() const { return total_reward - total_cost; }
  [[nodiscard]] double profit_per_run() const {
    return jobs_completed == 0 ? 0.0
                               : profit() / static_cast<double>(jobs_completed);
  }
  [[nodiscard]] double reward_to_cost() const {
    return total_cost <= 0.0 ? 0.0 : total_reward / total_cost;
  }
};

/// Read-only view of one worker for inspection hooks (testkit oracle).
struct WorkerView {
  std::uint64_t key = 0;
  cloud::Tier tier = cloud::Tier::kPrivate;
  int cores = 0;
  int threads = 0;
  bool busy = false;
  /// Job executing on this worker; meaningful only while busy.
  std::uint64_t current_job = 0;
  /// Pipeline stage of the current assignment; meaningful only while busy.
  std::size_t current_stage = 0;
  SimTime busy_until{0.0};
  SimTime busy_accumulated{0.0};
  SimTime hired_at{0.0};
  /// Busy, but the assignment's job already moved on (completed via a
  /// speculative sibling, was retried, or was abandoned) — the result
  /// will be discarded on arrival. Always false without fault injection.
  bool stale = false;
};

/// Read-only view of one queued task.
struct QueuedTaskView {
  std::uint64_t job_id = 0;
  std::size_t stage = 0;
  SimTime enqueued_at{0.0};
};

/// Consistent snapshot of the scheduler between two simulation events,
/// handed to SchedulerOptions::inspection_hook. Building one is O(live
/// state), so the hook is meant for verification harnesses, not sweeps.
struct SchedulerView {
  SimTime now{0.0};
  std::uint64_t event_seq = 0;
  /// Per-stage FIFO queues, front first.
  std::vector<std::vector<QueuedTaskView>> queues;
  /// Live workers, ascending key (deterministic order).
  std::vector<WorkerView> workers;
  std::size_t private_cores = 0;  ///< cores hired on the private tier
  std::size_t public_cores = 0;
  std::size_t private_capacity = 0;
  double cost_rate = 0.0;  ///< CU per TU burn rate right now
  /// Jobs sitting out a retry backoff (neither queued nor executing).
  std::size_t backoff_jobs = 0;
  /// Ids of the jobs with a stage in retry backoff, ascending (the oracle
  /// unions these with the queued/executing sets for job conservation).
  std::vector<std::uint64_t> backoff_job_ids;
  /// The pipeline DAG is the legacy linear chain; the oracle keeps its
  /// strict one-place-per-job invariants only in this mode (a DAG job
  /// legitimately occupies several queues/workers at once).
  bool linear_pipeline = true;
  /// Metrics accumulated so far (owned by the running scheduler).
  const RunMetrics* metrics = nullptr;
};

/// Extra knobs that are not part of the paper's parameter tables.
struct SchedulerOptions {
  /// Overrides the allocation algorithm with a fixed plan (used by the
  /// Figure 5 core-stage sweep).
  std::optional<ThreadPlan> forced_plan;
  /// When positive, sample a TimelinePoint every this many TU.
  SimTime timeline_sample_period{0.0};
  /// Replay this recorded workload instead of the synthetic arrival
  /// process (batches beyond config.duration are ignored).
  std::optional<workload::JobTrace> trace;
  /// Invoked before every simulation event with the event's (time,
  /// sequence) — feed it to a testkit::TraceDigest for bit-level run
  /// comparison. Must not mutate the scheduler.
  std::function<void(SimTime, std::uint64_t)> trace_hook;
  /// Invoked before every simulation event with a consistent SchedulerView
  /// (the testkit invariant oracle). Snapshot construction is O(state) per
  /// event; enable for verification runs only.
  std::function<void(const SchedulerView&)> inspection_hook;
  /// Record every task assignment and job completion into
  /// RunMetrics::stage_schedule / job_completions (the parity payload the
  /// live runtime is cross-validated against).
  bool record_schedule = false;
};

/// How an assignment ends, as the fault draw at dispatch decided.
enum class TaskEndKind : std::uint8_t { kComplete, kCrash, kFlap };

/// What the terminal event of one assignment hands back to the core.
/// 56 bytes, so a calendar callback capturing it plus a this-pointer stays
/// in the calendar's 64-byte inline buffer.
struct TaskEnd {
  std::uint64_t job_id = 0;
  std::uint64_t worker_key = 0;
  /// Task epoch the assignment started under: a stale end frees the
  /// worker but does not advance the task.
  std::uint64_t epoch = 0;
  SimTime start{0.0};         ///< includes any boot/reconfiguration delay
  SimTime planned_exec{0.0};  ///< modeled execution (checkpoint accounting)
  SimTime extra{0.0};         ///< straggle overrun beyond the planned end
  std::uint32_t stage = 0;
  TaskEndKind kind = TaskEndKind::kComplete;
};
static_assert(sizeof(TaskEnd) <= 56, "TaskEnd must fit an inline callback");

/// One task assignment handed to the driver for execution.
struct Assignment {
  TaskEnd end;
  SimTime dispatched{0.0};  ///< the dispatch decision instant
  SimTime end_at{0.0};      ///< modeled instant of the crash, flap or finish
  SimTime actual_end{0.0};  ///< modeled finish, straggle included
  int threads = 0;          ///< the worker's thread configuration
  bool speculative = false; ///< a straggler copy (its own trace span)
};

/// The physical side of an engine: its clock and what happens to an
/// assignment once the core has made it.
class EngineDriver {
 public:
  /// The driver's clock in TU.
  [[nodiscard]] virtual SimTime Now() const = 0;
  /// Starts one assignment. The driver must eventually hand
  /// assignment.end back through EngineCore::EndTask (or, for an end the
  /// driver observed physically, OnTaskComplete) unless the run ends
  /// first. Called after the core's own calendar inserts for the
  /// assignment, so the terminal event is scheduled last.
  virtual void StartExecution(const Assignment& assignment) = 0;

 protected:
  ~EngineDriver() = default;
};

/// The scheduling mechanics of one run. Construct, Start(), run the
/// calendar to the horizon, then Finish().
class EngineCore {
 public:
  /// `ingest` (not owned; may be null) replaces the synthetic generator
  /// and options.trace as the arrival source.
  EngineCore(const SimulationConfig& config, gatk::PipelineModel model,
             std::uint64_t seed, SchedulerOptions options,
             EngineDriver& driver, IngestSource* ingest = nullptr);

  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  /// Installs the inspection hooks and schedules the first arrival and the
  /// periodic timeline sampling. Call once.
  void Start();
  /// Settles the cloud bill exactly at the horizon and hands over the
  /// metrics. Jobs still in flight are not counted as completed.
  [[nodiscard]] RunMetrics Finish();

  /// The control-event calendar both drivers run.
  [[nodiscard]] sim::Simulator& calendar() { return sim_; }
  [[nodiscard]] const sim::Simulator& calendar() const { return sim_; }
  [[nodiscard]] const SimulationConfig& config() const { return config_; }

  /// The thread plan the allocation algorithm produces for a job of the
  /// given size at the current knowledge state.
  [[nodiscard]] ThreadPlan PlanFor(DataSize size) const {
    return policy_.PlanFor(size);
  }

  /// Terminal-event entry point: completion, crash or flap per end.kind.
  void EndTask(const TaskEnd& end);
  /// The assignment finished, whatever its drawn fate (a wall-clock task
  /// can finish before its modeled crash or flap): frees the worker and
  /// advances the task unless its epoch is stale.
  void OnTaskComplete(const TaskEnd& end);

  /// Measures the wall time of every dispatch round into
  /// dispatch_micros() and the scan_dispatch_micros histogram. Off by
  /// default, so the discrete-event path reads no clock with metrics off.
  void TimeDispatchRounds();
  [[nodiscard]] const RunningStats& dispatch_micros() const {
    return dispatch_micros_;
  }

 private:
  /// Per-stage readiness and recovery state of one job. DAG-readiness:
  /// a task joins its stage queue when remaining_deps reaches zero, and
  /// the job completes when every task has. For a linear chain exactly one
  /// task is live at a time, reproducing the legacy single-cursor walk.
  struct StageTask {
    SimTime enqueued_at{0.0};
    /// Predecessor stages not yet completed; ready at zero.
    std::size_t remaining_deps = 0;
    bool completed = false;
    // --- recovery bookkeeping (inert without fault injection) ----------
    /// Fraction of the stage already checkpointed; a new assignment only
    /// executes the remaining (1 - stage_done) share.
    double stage_done = 0.0;
    /// Bumped on completion and on every retry: in-flight events carrying
    /// an older epoch are stale and must not advance the task.
    std::uint64_t epoch = 0;
    /// Same-epoch assignments currently executing (2 with a live
    /// speculative copy).
    int active = 0;
    /// Sitting out a retry backoff (not queued, not executing).
    bool in_backoff = false;
    /// A speculation check was already scheduled for this epoch.
    bool speculated = false;
    /// Causal parent recorded at the latest enqueue (span.hpp id of the
    /// predecessor attempt / job / retried attempt that made this task
    /// ready); read back when the dispatch emits its exec span. Pure
    /// bookkeeping for the trace — never feeds a decision.
    std::uint64_t enqueue_parent_span = 0;
  };

  struct JobState {
    std::uint64_t id = 0;
    DataSize size{0.0};
    SimTime arrival{0.0};
    ThreadPlan plan;
    /// EET per stage (Eq. 2): model.ThreadedTime(stage, plan[stage], size),
    /// evaluated once at admission. Pricing, dispatch and the plan audit
    /// read it instead of re-evaluating the model.
    std::vector<double> stage_exec_tu;
    /// Times one of this job's tasks was lost and re-enqueued (the retry
    /// budget is per job across stages).
    int retries = 0;
    /// Tasks not yet completed; the job settles its reward at zero.
    std::size_t stages_remaining = 0;
    std::vector<StageTask> tasks;  ///< one per pipeline stage
  };

  struct WorkerBook {
    cloud::WorkerId id{};
    cloud::Tier tier = cloud::Tier::kPrivate;  ///< fixed at hire
    int cores = 0;    ///< instance size (fixed at hire)
    int threads = 0;  ///< current software configuration (<= cores)
    bool busy = false;
    std::uint64_t current_job = 0;  ///< meaningful only while busy
    SimTime busy_until{0.0};
    SimTime idle_since{0.0};
    SimTime busy_accumulated{0.0};  ///< total task-execution time served
    std::uint64_t idle_epoch = 0;
    /// Stage of the current assignment; meaningful only while busy.
    std::size_t current_stage = 0;
    /// Epoch of the task when the current assignment started (staleness
    /// detection for speculative duplicates).
    std::uint64_t assignment_epoch = 0;
    /// Unique id of the current assignment (distinguishes the original
    /// from a speculative copy on re-assignment of the same worker).
    std::uint64_t assignment_seq = 0;
  };
  using WorkerMap = std::unordered_map<std::uint64_t, WorkerBook>;

  [[nodiscard]] SimTime Now() const { return driver_.Now(); }

  /// Worker feedback (§III-A-3): fold the released worker's lifetime
  /// utilization into the run metrics.
  void RecordWorkerUtilization(const WorkerBook& worker, SimTime now);

  /// Pulls the next arrival batch (ingest source, trace cursor or
  /// synthetic generator) and schedules it; each fired batch pulls its
  /// successor, so the horizon is never materialized up front. The
  /// generator draws from its own RNG streams in the same order the eager
  /// path did, so schedules are bit-identical.
  void PumpArrivals();
  /// Admits jobs (plan, audit, ready stages enqueued) without dispatching;
  /// the caller runs the dispatch round.
  void AdmitJobs(const std::vector<workload::Job>& jobs);
  /// Reports a retired job to the ingest source and admits whatever it
  /// releases into the freed capacity. No-op without a source.
  void NotifyOutcome(std::uint64_t job_id, bool completed, SimTime now,
                     SimTime latency, DataSize size, double reward);
  /// Enqueues one ready stage task of a job onto its stage queue.
  /// `parent_span` is the causal origin of the readiness (job span on
  /// admission, completing predecessor's attempt span on a dependency
  /// release, the lost attempt's span on a retry, the running attempt's
  /// span for a speculative copy); recorded on the trace event and kept
  /// for the eventual exec span.
  void EnqueueTask(std::uint64_t job_id, std::size_t stage,
                   std::uint64_t parent_span);
  void TryDispatchAll();
  /// Attempts to dispatch the head of one stage queue; true on success.
  bool TryDispatchHead(std::size_t stage);
  void AssignTask(JobState& job, std::size_t stage, WorkerBook& worker,
                  SimTime start_time);
  /// The worker crashed mid-task: bill and discard it, then recover the
  /// interrupted assignment (checkpoint resume, retry budget, backoff).
  void OnWorkerFailure(const TaskEnd& end);
  /// The worker dropped its task but survives and returns to the idle
  /// pool; feeds the per-worker circuit breaker.
  void OnWorkerFlap(const TaskEnd& end);
  /// Shared recovery path for a valid-epoch task loss (crash or flap):
  /// checkpoint credit, sibling check, retry budget, backoff scheduling.
  void HandleTaskLoss(JobState& job, std::size_t stage, SimTime served,
                      SimTime planned_exec);
  /// Retry budget exhausted: purge the job's queued tasks (a DAG job may
  /// have parallel branches queued) and drop it.
  void AbandonJob(std::uint64_t job_id);
  /// Straggler detection: fires at start + slowdown * modeled_exec; if
  /// the same assignment is still running, enqueues a speculative copy.
  void OnSpeculationCheck(std::uint64_t job_id, std::size_t stage,
                          std::uint64_t epoch, std::uint64_t worker_key,
                          std::uint64_t assignment_seq);
  void ScheduleIdleRelease(std::uint64_t worker_key);
  /// Releases one idle worker: utilization feedback, bill, books, trace.
  void ReleaseIdle(WorkerMap::iterator it, SimTime now);

  /// Key of one (job, stage) task for the speculative-copy ledger. Stage
  /// indices fit 8 bits (PipelineModel::kMaxStages).
  [[nodiscard]] static std::uint64_t TaskKey(std::uint64_t job_id,
                                             std::size_t stage) {
    return (job_id << 8) | static_cast<std::uint64_t>(stage);
  }

  /// The predictive hire-or-wait inequality for `head`, the head of
  /// `stage`'s queue; true = hire public capacity now. Delegates to the
  /// shared SchedulingPolicy with a snapshot of the stage queue. `eval`
  /// (may be null) receives the priced inputs for the decision audit.
  [[nodiscard]] bool PredictiveShouldHire(std::size_t stage,
                                          const JobState& head,
                                          HireEvaluation* eval = nullptr);

  /// Records one hire-vs-wait decision into the scan_obs audit log and
  /// trace (no-op unless one of them is enabled).
  void AuditHire(obs::HireChoice choice, std::size_t stage,
                 const JobState& job, int threads, std::size_t queue_length,
                 const HireEvaluation* eval);

  /// Records the thread-allocation decision for a newly admitted job
  /// (no-op unless the decision audit is enabled).
  void AuditPlan(const JobState& job);
  /// Earliest time an existing busy worker frees; nullopt if none busy.
  [[nodiscard]] std::optional<SimTime> NextWorkerFreeTime() const;
  /// Snapshot of `stage`'s queue for the policy's delay-cost evaluation,
  /// written into snapshot_; valid until the next call.
  [[nodiscard]] std::span<const QueuedJobSnapshot> SnapshotQueue(
      std::size_t stage);

  /// The candidate-index view of one worker (key derives from its id).
  [[nodiscard]] static WorkerIndex::IdleEntry IdleEntryFor(
      const WorkerBook& worker);

  /// Oracle check (SCAN_TESTKIT_VERIFY_CANDIDATES): recomputes the
  /// candidate sets from the worker book with the legacy O(workers) scan
  /// and throws std::logic_error if the incremental index diverges.
  void VerifyCandidateIndex() const;

  /// Builds the inspection snapshot for the event about to execute.
  [[nodiscard]] SchedulerView BuildView(SimTime when, std::uint64_t seq) const;

  /// Compaction: releases idle private-tier workers (smallest first) until
  /// the private tier can fit `needed_cores` more. Returns true on
  /// success. Prevents fragmentation stalls where small idle workers pin
  /// capacity a larger queued task needs.
  bool TryFreePrivateCapacity(int needed_cores);

  void SampleTimeline();

  SimulationConfig config_;
  SchedulerOptions options_;
  EngineDriver& driver_;
  IngestSource* ingest_ = nullptr;
  SchedulingPolicy policy_;  ///< shared decision core
  cloud::CloudManager cloud_;
  workload::ArrivalGenerator arrivals_;
  sim::Simulator sim_;

  /// Trace replay batches + cursor (options_.trace only; the trace is
  /// already materialized, so streaming it costs nothing extra).
  std::vector<workload::ArrivalBatch> trace_batches_;
  std::size_t next_trace_batch_ = 0;

  /// Queued jobs per stage. Map nodes are stable and a job leaves every
  /// queue before it leaves jobs_, so the pointers never dangle; pricing
  /// and dispatch read the job without a hash lookup.
  std::vector<std::deque<JobState*>> queues_;
  std::unordered_map<std::uint64_t, JobState> jobs_;
  /// SnapshotQueue's reused buffer: one allocation per high-water mark,
  /// not one per hire-vs-wait decision.
  std::vector<QueuedJobSnapshot> snapshot_;
  WorkerMap workers_;
  /// Incremental candidate index over workers_ (see worker_index.hpp);
  /// updated on every idle/busy transition, replacing per-decision scans.
  WorkerIndex index_;

  fault::FaultInjector injector_;      ///< owns the "worker-failures" RNG
  fault::RetryPolicy retry_;
  fault::WorkerHealthTracker health_;  ///< circuit breaker (off by default)
  /// TaskKeys whose queue entry is a speculative straggler copy (at most
  /// one per task); consumed by AssignTask, cancelled on valid completion.
  std::unordered_set<std::uint64_t> speculative_queued_;
  std::uint64_t next_assignment_seq_ = 1;

  RunMetrics metrics_;
  /// scan_obs instruments, resolved once; updates are gated on
  /// obs::MetricsEnabled() so the disabled cost is one load + branch.
  obs::PlatformMetrics pmetrics_ = obs::PlatformMetrics::Resolve();
  /// Cached SCAN_TESTKIT_VERIFY_CANDIDATES; when set, every dispatch
  /// round cross-checks index_ against a from-scratch rescan.
  bool verify_candidates_ = false;

  // --- dispatch-round timing (TimeDispatchRounds) ---
  bool time_rounds_ = false;
  RunningStats dispatch_micros_;
  obs::Histogram* dispatch_micros_hist_ = nullptr;
};

}  // namespace scan::core
