#pragma once

// Streaming ingest: the seam between the engine's event loop and a
// job-submission front end (scan::serve::ServeFrontend, or any other
// source of work).
//
// Materializing the whole arrival schedule before the first event fires
// costs unbounded memory for a long-serving deployment and assumes a
// closed world a multi-tenant front end cannot satisfy (releases depend
// on completions). An IngestSource inverts that: the engine *pulls* one
// batch at a time, and pushes every job outcome back so the source can
// account quotas and release queued work into freed capacity.
//
// Threading/determinism contract: every method is called on the
// coordinator thread, in modeled-time event order. A source that is
// deterministic given its seed therefore makes the whole run
// deterministic on a virtual clock (same seed, bit-identical replay).

#include <cstdint>
#include <optional>
#include <vector>

#include "scan/common/units.hpp"
#include "scan/workload/arrivals.hpp"

namespace scan::core {

/// What happened to one injected job, reported the instant the engine
/// retires it (pipeline completed, or retry budget exhausted).
struct JobOutcome {
  std::uint64_t job_id = 0;
  /// true = all stages completed; false = abandoned (retries exhausted).
  bool completed = false;
  SimTime finished_at{0.0};
  /// Completion latency (finished_at - arrival); zero for abandonments.
  SimTime latency{0.0};
  DataSize size{0.0};
  /// Reward the engine's own reward function credited (0 when
  /// abandoned). Front ends reprice with per-tenant reward functions.
  double reward = 0.0;
};

/// A pull-based job source driven by the engine's event loop.
class IngestSource {
 public:
  virtual ~IngestSource() = default;

  /// The next modeled instant the source wants control (a submission
  /// arrival, or an internal boundary such as a quota-epoch reset), or
  /// nullopt when it is exhausted. Must be non-decreasing between calls.
  [[nodiscard]] virtual std::optional<SimTime> NextEventTime() = 0;

  /// Called when the instant from NextEventTime() fires. Returns the jobs
  /// to inject right now (possibly none — e.g. every submission was shed).
  /// Job ids must be unique across the whole run.
  [[nodiscard]] virtual std::vector<workload::Job> PullDue(SimTime now) = 0;

  /// Called once per retired job, before the dispatch round that follows
  /// it. Returns jobs released into the freed capacity (injected at
  /// outcome.finished_at).
  [[nodiscard]] virtual std::vector<workload::Job> OnJobOutcome(
      const JobOutcome& outcome) = 0;
};

}  // namespace scan::core
