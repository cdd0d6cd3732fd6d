#pragma once

// ObsSession: RAII wiring from command-line flags to the observability
// subsystems. Construction enables whatever the options request (trace
// recorder, metrics registry, decision audit, log level); Finish() — or
// destruction — exports each to its path and disables collection again.
//
// Intended use in bench/example binaries:
//   const auto obs_session = bench::MakeObsSession(flags);
//   ... run the exhibit ...
//   // exports happen when obs_session leaves scope
//
// Path conventions: a trace path ending in ".jsonl" exports JSONL,
// anything else Chrome trace JSON; a metrics path ending in ".json"
// exports the JSON snapshot, anything else Prometheus text.

#include <cstddef>
#include <string>

namespace scan::obs {

struct ObsOptions {
  std::string trace_path;    ///< empty = tracing stays off
  std::string metrics_path;  ///< empty = metrics stay off
  std::string audit_path;    ///< empty = decision audit stays off
  std::string log_level;     ///< empty = leave the process log level alone
  std::size_t trace_capacity = 0;  ///< 0 = recorder default per-thread ring
};

class ObsSession {
 public:
  explicit ObsSession(ObsOptions options);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Disables every enabled subsystem, then exports each to its path: the
  /// audit JSONL on a second thread while the calling thread writes the
  /// trace and then the metrics; returns after both are done. The audit is
  /// written on the calling thread instead when there is no trace or
  /// metrics file to overlap with, or when no thread can be started. Each
  /// file has exactly one writer. Idempotent; each failed export is
  /// reported on stderr for its own path (observability must never fail
  /// the exhibit).
  void Finish();

  /// True when any subsystem was enabled by this session.
  [[nodiscard]] bool active() const {
    return trace_on_ || metrics_on_ || audit_on_;
  }

 private:
  ObsOptions options_;
  bool trace_on_ = false;
  bool metrics_on_ = false;
  bool audit_on_ = false;
  bool finished_ = false;
};

}  // namespace scan::obs
