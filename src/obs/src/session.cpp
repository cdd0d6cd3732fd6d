#include "scan/obs/session.hpp"

#include <cstdio>

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
  if (trace_on_) {
    TraceRecorder& recorder = TraceRecorder::Global();
    recorder.Disable();
    const bool jsonl = EndsWith(options_.trace_path, ".jsonl");
    const bool ok = jsonl ? recorder.ExportJsonl(options_.trace_path)
                          : recorder.ExportChromeJson(options_.trace_path);
    if (!ok) {
      std::fprintf(stderr, "obs: failed to write trace to %s\n",
                   options_.trace_path.c_str());
    }
  }
  if (metrics_on_) {
    DisableMetrics();
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
    DecisionAudit::Global().Disable();
    if (!DecisionAudit::Global().ExportJsonl(options_.audit_path)) {
      std::fprintf(stderr, "obs: failed to write audit log to %s\n",
                   options_.audit_path.c_str());
    }
  }
}

}  // namespace scan::obs
