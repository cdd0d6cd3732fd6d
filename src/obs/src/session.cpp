#include "scan/obs/session.hpp"

#include <cstdio>
#include <exception>
#include <system_error>
#include <thread>

#include "scan/common/log.hpp"
#include "scan/common/str.hpp"
#include "scan/obs/audit.hpp"
#include "scan/obs/export_writer.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/obs/trace.hpp"

namespace scan::obs {

ObsSession::ObsSession(ObsOptions options) : options_(std::move(options)) {
  if (!options_.log_level.empty()) {
    if (const auto level = ParseLogLevel(options_.log_level)) {
      SetLogLevel(*level);
    } else {
      std::fprintf(stderr, "obs: unknown log level '%s' (ignored)\n",
                   options_.log_level.c_str());
    }
  }
  if (!options_.trace_path.empty()) {
    TraceRecorder::Global().Clear();
    TraceRecorder::Global().Enable(options_.trace_capacity);
    trace_on_ = true;
  }
  if (!options_.metrics_path.empty()) {
    MetricsRegistry::Global().ResetAll();
    EnableMetrics();
    metrics_on_ = true;
  }
  if (!options_.audit_path.empty()) {
    DecisionAudit::Global().Clear();
    DecisionAudit::Global().Enable();
    audit_on_ = true;
  }
}

ObsSession::~ObsSession() { Finish(); }

void ObsSession::Finish() {
  if (finished_) return;
  finished_ = true;
  // Collection stops everywhere before any export starts, so the exports
  // read quiescent state and can run side by side.
  if (trace_on_) TraceRecorder::Global().Disable();
  if (metrics_on_) DisableMetrics();
  if (audit_on_) DecisionAudit::Global().Disable();

  // The audit log goes out on its own thread while this one writes the
  // trace and the metrics; each file has exactly one writer. With nothing
  // to overlap, or when no thread can be started, it is written here after
  // them instead.
  bool audit_ok = true;
  std::exception_ptr audit_error;
  const auto export_audit = [&] {
    try {
      audit_ok = DecisionAudit::Global().ExportJsonl(options_.audit_path);
    } catch (...) {
      audit_error = std::current_exception();
    }
  };
  std::jthread audit_export;
  if (audit_on_ && (trace_on_ || metrics_on_)) {
    try {
      audit_export = std::jthread(export_audit);
    } catch (const std::system_error&) {
      // Out of threads: fall through to the inline export below.
    }
  }
  if (trace_on_) {
    const TraceRecorder& recorder = TraceRecorder::Global();
    const bool jsonl = EndsWith(options_.trace_path, ".jsonl");
    const bool ok = jsonl ? recorder.ExportJsonl(options_.trace_path)
                          : recorder.ExportChromeJson(options_.trace_path);
    if (!ok) {
      std::fprintf(stderr, "obs: failed to write trace to %s\n",
                   options_.trace_path.c_str());
    }
  }
  if (metrics_on_) {
    ExportWriter out(options_.metrics_path);
    if (EndsWith(options_.metrics_path, ".json")) {
      MetricsRegistry::Global().WriteJsonSnapshot(out);
    } else {
      MetricsRegistry::Global().WritePrometheusText(out);
    }
    if (!out.Close()) {
      std::fprintf(stderr, "obs: failed to write metrics to %s\n",
                   options_.metrics_path.c_str());
    }
  }
  if (audit_on_) {
    if (audit_export.joinable()) {
      audit_export.join();
    } else {
      export_audit();
    }
    if (audit_error) std::rethrow_exception(audit_error);
    if (!audit_ok) {
      std::fprintf(stderr, "obs: failed to write audit log to %s\n",
                   options_.audit_path.c_str());
    }
  }
}

}  // namespace scan::obs
