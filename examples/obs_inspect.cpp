// obs_inspect: read a scan_obs trace (Chrome trace JSON or JSONL) and
// summarize it — per-stage queue-wait totals and the *exact* span-graph
// critical path (queued / boot / run per causal hop) of the slowest
// jobs.
//
//   $ ./table1_sweep --trace=run.json          # record a trace
//   $ ./obs_inspect run.json                   # inspect it
//   $ ./obs_inspect                            # self-check (see below)
//
// With no argument the binary runs its self-check: a pinned-seed
// Scheduler run with tracing AND metrics enabled, exported to JSONL,
// parsed back with the same parser used for files, and cross-checked
// three ways — (1) per-stage queue-wait totals recovered from the trace
// must match the scheduler's own stage_queue_wait accumulators, (2) the
// span-graph critical path of every completed job must telescope to its
// recorded latency, in memory and through the file round trip, and
// (3) the decision-latency quantile sketch must have observed every
// dispatch round. This is registered as a ctest, so the exporters, this
// parser, and the causal span layer cannot drift from the
// instrumentation.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scan/common/str.hpp"
#include "scan/core/scheduler.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/obs/span_graph.hpp"
#include "scan/obs/trace.hpp"

using namespace scan;

namespace {

/// One parsed trace event (file-format independent, times in TU).
struct ParsedEvent {
  std::string kind;
  double t = 0.0;
  double dur = 0.0;
  std::uint64_t track = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  double v = 0.0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
};

/// `"key":` followed by `tail`. Appended piecewise: GCC 12's -O3
/// -Wrestrict misfires on `"literal" + std::string`.
std::string KeyNeedle(std::string_view key, std::string_view tail = "") {
  std::string needle = "\"";
  needle.append(key).append("\":").append(tail);
  return needle;
}

/// Extracts the number following `"key":` in a JSON object line. Good
/// enough for the exporters' machine-written one-object-per-line output.
std::optional<double> FindNumber(std::string_view line, std::string_view key) {
  const std::string needle = KeyNeedle(key);
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  return ParseDouble(line.substr(pos + needle.size(),
                                 line.find_first_of(",}", pos + needle.size()) -
                                     (pos + needle.size())));
}

std::optional<std::string> FindString(std::string_view line,
                                      std::string_view key) {
  const std::string needle = KeyNeedle(key, "\"");
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  const std::size_t start = pos + needle.size();
  const std::size_t end = line.find('"', start);
  if (end == std::string_view::npos) return std::nullopt;
  return std::string(line.substr(start, end - start));
}

/// Span/parent ids exceed double's 53-bit mantissa (tag in the top two
/// bits), so they are parsed as integer text, not through ParseDouble.
std::uint64_t FindU64(std::string_view line, std::string_view key) {
  const std::string needle = KeyNeedle(key);
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return 0;
  const std::size_t start = pos + needle.size();
  std::uint64_t value = 0;
  for (std::size_t i = start; i < line.size(); ++i) {
    const char c = line[i];
    if (c < '0' || c > '9') break;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

/// Parses either export format; Chrome traces are detected by the
/// "traceEvents" wrapper and their ts/dur converted back from trace
/// microseconds to TU (1 TU = 1000 us, see trace.cpp).
std::vector<ParsedEvent> ParseTraceFile(const std::string& path, bool& ok) {
  std::ifstream in(path);
  ok = static_cast<bool>(in);
  std::vector<ParsedEvent> events;
  if (!ok) return events;
  bool chrome = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"traceEvents\"") != std::string::npos) {
      chrome = true;
      continue;
    }
    ParsedEvent ev;
    if (chrome) {
      const auto name = FindString(line, "name");
      const auto ts = FindNumber(line, "ts");
      if (!name || !ts) continue;
      // Perfetto flow-arrow pairs (ph "s"/"f") reuse the "causal" name;
      // they duplicate span links already carried on the events.
      if (*name == "causal") continue;
      ev.kind = *name;
      ev.t = *ts / 1000.0;
      ev.dur = FindNumber(line, "dur").value_or(0.0) / 1000.0;
      ev.track =
          static_cast<std::uint64_t>(FindNumber(line, "tid").value_or(0.0));
    } else {
      const auto kind = FindString(line, "kind");
      const auto t = FindNumber(line, "t");
      if (!kind || !t) continue;
      ev.kind = *kind;
      ev.t = *t;
      ev.dur = FindNumber(line, "dur").value_or(0.0);
      ev.track =
          static_cast<std::uint64_t>(FindNumber(line, "track").value_or(0.0));
    }
    ev.a = static_cast<std::uint64_t>(FindNumber(line, "a").value_or(0.0));
    ev.b = static_cast<std::uint64_t>(FindNumber(line, "b").value_or(0.0));
    ev.v = FindNumber(line, "v").value_or(0.0);
    ev.span = FindU64(line, "span");
    ev.parent = FindU64(line, "parent");
    events.push_back(std::move(ev));
  }
  return events;
}

/// Converts parsed events back into TraceEvents so the span-graph
/// builder runs on files exactly as it does on a live recorder.
std::vector<obs::TraceEvent> ToTraceEvents(
    const std::vector<ParsedEvent>& parsed) {
  std::map<std::string, obs::EventKind> by_name;
  for (int k = 0; k <= static_cast<int>(obs::EventKind::kJobAbandoned); ++k) {
    const auto kind = static_cast<obs::EventKind>(k);
    by_name.emplace(obs::EventKindName(kind), kind);
  }
  std::vector<obs::TraceEvent> events;
  events.reserve(parsed.size());
  for (const ParsedEvent& p : parsed) {
    const auto it = by_name.find(p.kind);
    if (it == by_name.end()) continue;
    obs::TraceEvent ev;
    ev.kind = it->second;
    ev.time_tu = p.t;
    ev.duration_tu = p.dur;
    ev.track = p.track;
    ev.a = p.a;
    ev.b = p.b;
    ev.value = p.v;
    ev.span = p.span;
    ev.parent = p.parent;
    events.push_back(ev);
  }
  return events;
}

struct TraceSummary {
  std::map<std::uint64_t, double> stage_queue_wait;  ///< stage -> total TU
  std::map<std::uint64_t, std::uint64_t> stage_dequeues;
  /// Fault-recovery instants (DESIGN.md §10), kind -> count. Empty for a
  /// fault-free trace, so the recovery block only prints on chaos runs.
  std::map<std::string, std::uint64_t> recovery;
  std::size_t events = 0;
};

bool IsRecoveryKind(const std::string& kind) {
  return kind == "worker-failure" || kind == "worker-flap" ||
         kind == "task-retry" || kind == "retry-backoff" ||
         kind == "checkpoint" || kind == "straggle" ||
         kind == "breaker-open" || kind == "speculative-launch" ||
         kind == "speculative-wasted" || kind == "job-abandoned";
}

TraceSummary Summarize(const std::vector<ParsedEvent>& events) {
  TraceSummary s;
  s.events = events.size();
  for (const ParsedEvent& ev : events) {
    if (ev.kind == "queue-dequeue") {
      s.stage_queue_wait[ev.b] += ev.v;
      ++s.stage_dequeues[ev.b];
    } else if (IsRecoveryKind(ev.kind)) {
      ++s.recovery[ev.kind];
    }
  }
  return s;
}

void PrintSummary(const TraceSummary& s, const obs::SpanGraph& graph) {
  std::printf("%zu events, %zu spans, %zu causal edges\n", s.events,
              graph.span_count(), graph.edge_count());
  std::printf("\nqueue-wait breakdown per stage:\n");
  std::printf("  %-6s %10s %12s %12s\n", "stage", "dequeues", "total TU",
              "mean TU");
  for (const auto& [stage, total] : s.stage_queue_wait) {
    const auto n = s.stage_dequeues.at(stage);
    std::printf("  %-6llu %10llu %12.2f %12.3f\n",
                static_cast<unsigned long long>(stage),
                static_cast<unsigned long long>(n), total,
                n > 0 ? total / static_cast<double>(n) : 0.0);
  }

  // Exact span-graph critical paths of the slowest completed jobs: the
  // causal walk from completion back to arrival splits latency into
  // queued + boot + run with event-instant precision (no heuristic).
  std::vector<std::pair<double, const obs::JobCriticalPath*>> slowest;
  for (const obs::JobCriticalPath& path : graph.jobs()) {
    slowest.emplace_back(path.latency_tu, &path);
  }
  std::sort(slowest.begin(), slowest.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::printf("\nspan-graph critical path of the %zu slowest jobs (TU):\n",
              std::min<std::size_t>(slowest.size(), 5));
  std::printf("  %-8s %5s %10s %10s %10s %10s\n", "job", "hops", "latency",
              "queued", "boot", "run");
  for (std::size_t i = 0; i < slowest.size() && i < 5; ++i) {
    const obs::JobCriticalPath& p = *slowest[i].second;
    std::printf("  %-8llu %5zu %10.2f %10.2f %10.2f %10.2f%s\n",
                static_cast<unsigned long long>(p.job_id), p.hops.size(),
                p.latency_tu, p.total_queued_tu(), p.total_boot_tu(),
                p.total_run_tu(), p.complete_chain ? "" : "  (partial)");
  }

  if (!s.recovery.empty()) {
    std::printf("\nfault recovery events:\n");
    for (const auto& [kind, count] : s.recovery) {
      std::printf("  %-20s %8llu\n", kind.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }
}

/// The critical-path exactness law: every completed job's telescoping
/// segments must sum to its recorded latency.
bool CheckPathsExact(const obs::SpanGraph& graph, const char* label) {
  bool pass = true;
  for (const obs::JobCriticalPath& path : graph.jobs()) {
    if (!path.complete_chain || path.hops.empty()) {
      std::fprintf(stderr, "self-check(%s): job %llu has a broken chain\n",
                   label, static_cast<unsigned long long>(path.job_id));
      pass = false;
      continue;
    }
    const double sum =
        path.total_queued_tu() + path.total_boot_tu() + path.total_run_tu();
    const double tol = 1e-9 * std::max(1.0, std::fabs(path.latency_tu));
    if (std::fabs(sum - path.latency_tu) > tol) {
      std::fprintf(stderr,
                   "self-check(%s): job %llu segments %.12g != latency "
                   "%.12g\n",
                   label, static_cast<unsigned long long>(path.job_id), sum,
                   path.latency_tu);
      pass = false;
    }
  }
  return pass;
}

/// Self-check: trace a pinned Scheduler run with metrics on, export +
/// re-parse, and compare against RunMetrics, the span-graph law, and the
/// decision-latency sketch.
int SelfCheck() {
  core::SimulationConfig config;
  config.duration = SimTime{2000.0};
  config.scaling = core::ScalingAlgorithm::kPredictive;

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  obs::MetricsRegistry::Global().ResetAll();
  obs::EnableMetrics();
  core::Scheduler scheduler(config, gatk::PipelineModel::PaperGatk(), 42);
  const core::RunMetrics metrics = scheduler.Run();
  recorder.Disable();
  obs::DisableMetrics();

  const obs::SpanGraph live_graph =
      obs::SpanGraph::Build(recorder.Collect());

  const std::string path = "obs_inspect_selfcheck.jsonl";
  if (!recorder.ExportJsonl(path)) {
    std::fprintf(stderr, "self-check: JSONL export failed\n");
    return 1;
  }
  bool ok = false;
  const std::vector<ParsedEvent> parsed = ParseTraceFile(path, ok);
  std::remove(path.c_str());
  if (!ok || parsed.empty()) {
    std::fprintf(stderr, "self-check: could not read back %s\n", path.c_str());
    return 1;
  }
  const TraceSummary summary = Summarize(parsed);
  const obs::SpanGraph file_graph =
      obs::SpanGraph::Build(ToTraceEvents(parsed));
  PrintSummary(summary, file_graph);

  // Every stage's recovered total must match the scheduler's own Welford
  // accumulator (sum = mean * count) to float round-trip precision.
  bool pass = metrics.jobs_completed > 0;
  for (std::size_t stage = 0; stage < metrics.stage_queue_wait.size();
       ++stage) {
    const auto& stats = metrics.stage_queue_wait[stage];
    const double expect = stats.mean() * static_cast<double>(stats.count());
    const auto it = summary.stage_queue_wait.find(stage);
    const double got = it == summary.stage_queue_wait.end() ? 0.0 : it->second;
    const double tol = 1e-6 * std::max(1.0, std::fabs(expect));
    if (std::fabs(got - expect) > tol) {
      std::fprintf(stderr,
                   "self-check: stage %zu queue-wait mismatch "
                   "(trace %.9g vs metrics %.9g)\n",
                   stage, got, expect);
      pass = false;
    }
    const auto n = summary.stage_dequeues.count(stage)
                       ? summary.stage_dequeues.at(stage)
                       : 0;
    if (n != stats.count()) {
      std::fprintf(stderr,
                   "self-check: stage %zu dequeue count mismatch "
                   "(trace %llu vs metrics %zu)\n",
                   stage, static_cast<unsigned long long>(n), stats.count());
      pass = false;
    }
  }

  // Span-graph law, in memory and through the JSONL round trip; the two
  // graphs must also agree job for job.
  pass = CheckPathsExact(live_graph, "live") && pass;
  pass = CheckPathsExact(file_graph, "file") && pass;
  if (live_graph.jobs().size() != file_graph.jobs().size() ||
      live_graph.jobs().size() !=
          static_cast<std::size_t>(metrics.jobs_completed)) {
    std::fprintf(stderr,
                 "self-check: path counts live=%zu file=%zu completed=%llu\n",
                 live_graph.jobs().size(), file_graph.jobs().size(),
                 static_cast<unsigned long long>(metrics.jobs_completed));
    pass = false;
  }

  // Sketch-backed decision-latency quantiles: every dispatch round must
  // have fed the SLO's sketch, and quantiles must be ordered.
  const obs::PlatformMetrics pm = obs::PlatformMetrics::Resolve();
  const double p50 = pm.decision_latency_us->Quantile(0.50);
  const double p95 = pm.decision_latency_us->Quantile(0.95);
  const double p99 = pm.decision_latency_us->Quantile(0.99);
  std::printf("\ndecision latency (wall us, DDSketch n=%llu): "
              "p50=%.3f p95=%.3f p99=%.3f\n",
              static_cast<unsigned long long>(pm.decision_latency_us->count()),
              p50, p95, p99);
  std::printf("decision SLO (p99 <= %.0f us): %s, budget burn %.3f\n",
              pm.decision_latency_slo->spec().threshold,
              pm.decision_latency_slo->Met() ? "met" : "BREACHED",
              pm.decision_latency_slo->BudgetBurn());
  if (pm.decision_latency_us->count() == 0 || p50 > p95 || p95 > p99) {
    std::fprintf(stderr, "self-check: decision-latency sketch inconsistent\n");
    pass = false;
  }

  std::printf("\nself-check (trace vs RunMetrics, span graph, sketch): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return SelfCheck();
  bool ok = false;
  const std::vector<ParsedEvent> events = ParseTraceFile(argv[1], ok);
  if (!ok) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 1;
  }
  std::printf("%s: ", argv[1]);
  PrintSummary(Summarize(events), obs::SpanGraph::Build(ToTraceEvents(events)));
  return 0;
}
