// serve_mixed and serve_overload_obs: multi-tenant serving episodes through
// ServeFrontend and RuntimePlatform::Serve under VirtualClock.
//
// One episode builds the front end and the platform (set-up), serves the
// configured horizon and, for the observability workload, exports the
// program's trace, metrics and decision audit (timed region). A run
// repeats the episode with the same seed until --seconds have passed, so
// every episode must reproduce the first one's digest.

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "scan/gatk/pipeline_model.hpp"
#include "scan/obs/session.hpp"
#include "scan/obs/trace.hpp"
#include "scan/runtime/ingest.hpp"
#include "scan/runtime/runtime_platform.hpp"
#include "scan/serve/frontend.hpp"
#include "scan/serve/serve.hpp"
#include "scan/testkit/tenancy.hpp"

namespace perfbench {
namespace {

using namespace scan;

struct Scenario {
  core::SimulationConfig config;
  std::vector<serve::TenantSpec> tenants;
  serve::ServeOptions options;
  bool observe = false;  ///< trace, metrics and audit on, exported per episode
};

serve::TenantSpec Tenant(std::uint64_t id, const char* name,
                         workload::ArrivalPattern pattern, double weight,
                         double rate_scale, std::size_t queue_depth) {
  serve::TenantSpec spec;
  spec.id = id;
  spec.name = name;
  spec.pattern.pattern = pattern;
  spec.weight = weight;
  spec.rate_scale = rate_scale;
  spec.max_queue_depth = queue_depth;
  return spec;
}

struct SpanIds {
  std::uint32_t serve = 0;  ///< RuntimePlatform::Serve()
  std::uint32_t next_event = 0;
  std::uint32_t pull_due = 0;
  std::uint32_t on_outcome = 0;
};

/// The serve layer's public boundary: forwards every IngestSource call to
/// the front end, collects each completed job's modeled latency and, when
/// a span log is attached, records one span per call.
class ForwardingIngest final : public runtime::IngestSource {
 public:
  ForwardingIngest(serve::ServeFrontend& inner, SpanLog* spans,
                   const SpanIds& ids)
      : inner_(inner), spans_(spans), ids_(ids) {}

  std::optional<SimTime> NextEventTime() override {
    ++calls_;
    if (spans_ == nullptr) return inner_.NextEventTime();
    spans_->Open(ids_.next_event);
    auto next = inner_.NextEventTime();
    spans_->Close();
    return next;
  }

  std::vector<workload::Job> PullDue(SimTime now) override {
    ++calls_;
    if (spans_ == nullptr) return inner_.PullDue(now);
    spans_->Open(ids_.pull_due);
    auto jobs = inner_.PullDue(now);
    if (!jobs.empty()) spans_->SetJob(jobs.front().id);
    spans_->Close();
    return jobs;
  }

  std::vector<workload::Job> OnJobOutcome(
      const runtime::JobOutcome& outcome) override {
    ++calls_;
    if (outcome.completed) latencies_.push_back(outcome.latency.value());
    if (spans_ == nullptr) return inner_.OnJobOutcome(outcome);
    spans_->Open(ids_.on_outcome, outcome.job_id);
    auto released = inner_.OnJobOutcome(outcome);
    spans_->Close();
    return released;
  }

  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] const std::vector<double>& latencies() const {
    return latencies_;
  }

 private:
  serve::ServeFrontend& inner_;
  SpanLog* spans_;
  SpanIds ids_;
  std::uint64_t calls_ = 0;
  std::vector<double> latencies_;
};

struct Episode {
  serve::ServeReport report;
  testkit::TenancyCheck check;
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::uint64_t ingest_calls = 0;
  /// Completed outcomes seen at the ingest boundary, and their p99
  /// modeled latency (TU); per-job values are not kept across episodes.
  std::uint64_t outcomes = 0;
  double latency_p99_tu = 0.0;
  double queue_wait_tu = 0.0;  ///< mean release wait over released jobs
  std::uint64_t abandoned = 0;
  // Span self times (traced episodes only).
  double serve_self_s = 0.0;
  double runtime_self_s = 0.0;
  std::uint64_t spans = 0;
  // Observability exports (observing scenarios only).
  std::uint64_t obs_recorded = 0;
  std::uint64_t obs_dropped = 0;
  double export_s = 0.0;
  std::uint64_t export_bytes = 0;

  [[nodiscard]] double jobs_per_s() const {
    return static_cast<double>(report.jobs_completed) / timed_s;
  }
};

std::uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

Episode RunEpisode(const Scenario& sc, const gatk::PipelineModel& model,
                   const Args& args, SpanLog* spans, const SpanIds& ids) {
  Episode ep;
  const std::string prefix = args.out_dir + "/" + args.workload;
  obs::ObsOptions obs_options;
  if (sc.observe) {
    obs_options.trace_path = prefix + ".trace.jsonl";
    obs_options.metrics_path = prefix + ".metrics.prom";
    obs_options.audit_path = prefix + ".audit.jsonl";
  }

  const auto t0 = Clock::now();
  obs::ObsSession session(obs_options);
  serve::ServeFrontend frontend(sc.config, model, sc.tenants, args.seed,
                                sc.options);
  ForwardingIngest ingest(frontend, spans, ids);
  runtime::RuntimeOptions runtime_options;
  runtime_options.exec_threads = kExecThreads;
  runtime_options.ingest = &ingest;
  runtime::RuntimePlatform platform(sc.config, model, args.seed,
                                    runtime_options);
  ep.setup_s = SecondsSince(t0);

  const auto t1 = Clock::now();
  if (spans != nullptr) {
    spans->ResetTotals();
    spans->Open(ids.serve);
  }
  ep.report.runtime = platform.Serve();
  if (spans != nullptr) spans->Close();
  if (sc.observe) {
    const obs::TraceRecorder::Stats stats = obs::TraceRecorder::Global().stats();
    ep.obs_recorded = stats.events_recorded;
    ep.obs_dropped = stats.events_dropped;
    const auto te = Clock::now();
    session.Finish();
    ep.export_s = SecondsSince(te);
    ep.export_bytes = FileBytes(obs_options.trace_path) +
                      FileBytes(obs_options.metrics_path) +
                      FileBytes(obs_options.audit_path);
  }
  ep.timed_s = SecondsSince(t1);

  if (spans != nullptr) {
    ep.runtime_self_s = spans->totals(ids.serve).self_s;
    ep.serve_self_s = spans->totals(ids.next_event).self_s +
                      spans->totals(ids.pull_due).self_s +
                      spans->totals(ids.on_outcome).self_s;
    ep.spans = 1 + spans->totals(ids.next_event).count +
               spans->totals(ids.pull_due).count +
               spans->totals(ids.on_outcome).count;
  }

  // Fold the front end into a ServeReport, as RunMultiTenantServe does.
  serve::ServeReport& report = ep.report;
  double wait_tu = 0.0;
  for (const serve::TenantSpec& spec : frontend.tenants()) {
    serve::TenantReport tr;
    tr.id = spec.id;
    tr.name = spec.name;
    tr.weight = spec.weight;
    tr.max_queue_depth = spec.max_queue_depth;
    tr.max_in_flight = spec.max_in_flight;
    tr.stats = frontend.StatsFor(spec.id);
    report.jobs_submitted += tr.stats.submitted;
    report.jobs_shed += tr.stats.shed;
    report.jobs_released += tr.stats.released;
    report.jobs_completed += tr.stats.completed;
    ep.abandoned += tr.stats.abandoned;
    wait_tu += tr.stats.total_queue_wait_tu;
    report.tenants.push_back(std::move(tr));
  }
  report.decision_rounds = frontend.decision_rounds();
  report.pricing_evaluations = frontend.pricing_evaluations();
  report.priced_holds = frontend.priced_holds();
  report.quota_violations = frontend.quota_violations();
  report.work_conservation_violations =
      frontend.work_conservation_violations();
  report.peak_global_in_flight = frontend.peak_global_in_flight();
  report.decision_p50_us = frontend.DecisionMicrosQuantile(0.5);
  report.decision_p99_us = frontend.DecisionMicrosQuantile(0.99);
  report.decision_samples = frontend.decision_samples();

  const core::RunMetrics& m = report.runtime.metrics;
  std::uint64_t digest = frontend.Digest();
  digest = MixU64(digest, m.jobs_completed);
  digest = MixU64(digest, m.jobs_arrived);
  digest = MixDouble(digest, m.total_reward);
  digest = MixDouble(digest, m.total_cost);
  for (const double latency : ingest.latencies()) {
    digest = MixDouble(digest, latency);
  }
  report.digest = digest;

  ep.check = testkit::CheckServeInvariants(report);
  ep.ingest_calls = ingest.calls();
  ep.outcomes = ingest.latencies().size();
  ep.latency_p99_tu = Quantile(ingest.latencies(), 0.99);
  ep.queue_wait_tu = report.jobs_released == 0
                         ? 0.0
                         : wait_tu / static_cast<double>(report.jobs_released);
  return ep;
}

Result RunServe(const Scenario& sc, const Args& args) {
  Result result;
  const gatk::PipelineModel model = gatk::PipelineModel::PaperGatk();

  SpanLog span_log(std::size_t{1} << 19);
  SpanIds ids;
  ids.serve = span_log.Name("runtime.serve");
  ids.next_event = span_log.Name("serve.next_event_time");
  ids.pull_due = span_log.Name("serve.pull_due");
  ids.on_outcome = span_log.Name("serve.on_job_outcome");

  // Untraced runs time every episode; traced runs alternate untraced and
  // traced episodes so the overhead is measured under the same conditions.
  std::vector<Episode> plain;
  std::vector<Episode> traced;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool trace_this = args.trace && i % 2 == 1;
    Episode ep = RunEpisode(sc, model, args, trace_this ? &span_log : nullptr,
                            ids);
    ++result.attempted;
    if (!ep.check.ok()) {
      result.Check(false, "episode " + std::to_string(i) +
                              " serving invariants: " + ep.check.Describe());
    }
    const Episode& first = plain.empty() ? ep : plain.front();
    result.Check(ep.report.digest == first.report.digest,
                 "episode " + std::to_string(i) +
                     " replay digest differs from the first episode");
    result.Check(ep.outcomes == ep.report.jobs_completed,
                 "completed outcomes seen at the ingest boundary differ "
                 "from the front end's completed count");
    result.Check(ep.report.jobs_completed > 0, "no job completed");
    (trace_this ? traced : plain).push_back(std::move(ep));
    const std::size_t want = args.trace ? 4 : 2;
    if (plain.size() + traced.size() >= want &&
        SecondsSince(start) >= args.seconds) {
      break;
    }
  }
  if (!result.errors.empty()) return result;

  auto median_of = [](const std::vector<Episode>& eps, auto field) {
    std::vector<double> v;
    for (const Episode& ep : eps) v.push_back(field(ep));
    return Median(v);
  };
  const Episode& ref = plain.front();
  const serve::ServeReport& r = ref.report;
  const double submitted = static_cast<double>(r.jobs_submitted);
  const double fail_ratio =
      static_cast<double>(r.jobs_shed + ref.abandoned) / submitted;
  const double untraced_jps =
      median_of(plain, [](const Episode& e) { return e.jobs_per_s(); });

  result.Note("episodes", static_cast<double>(plain.size() + traced.size()),
              "count");
  result.Note("jobs_submitted", submitted, "count");
  result.Note("jobs_completed", static_cast<double>(r.jobs_completed),
              "count");
  result.Note("fail_ratio", fail_ratio, "ratio");
  result.Note("profit_per_job_cu", r.runtime.metrics.profit_per_run(), "CU");
  result.Note("episode_timed_s",
              median_of(plain, [](const Episode& e) { return e.timed_s; }),
              "s");

  if (!args.trace) {
    result.metrics["jobs_per_s"] = untraced_jps;
    result.metrics["setup_s"] =
        median_of(plain, [](const Episode& e) { return e.setup_s; });
    result.metrics["reward_cost_ratio"] =
        r.runtime.metrics.reward_to_cost();
    result.metrics["job_latency_p99_tu"] = ref.latency_p99_tu;
    return result;
  }

  const Episode& t = traced.front();
  const serve::ServeReport& tr = t.report;
  const runtime::RuntimeReport& rt = tr.runtime;
  auto& m = result.metrics;
  m["serve.calls"] = static_cast<double>(t.ingest_calls);
  m["serve.self_s"] =
      median_of(traced, [](const Episode& e) { return e.serve_self_s; });
  m["serve.decision_rounds"] = static_cast<double>(tr.decision_rounds);
  m["serve.round_p50_us"] = median_of(
      traced, [](const Episode& e) { return e.report.decision_p50_us; });
  m["serve.round_p99_us"] = median_of(
      traced, [](const Episode& e) { return e.report.decision_p99_us; });
  m["serve.pricing_evaluations"] =
      static_cast<double>(tr.pricing_evaluations);
  m["serve.priced_hold_ratio"] =
      tr.pricing_evaluations == 0
          ? 0.0
          : static_cast<double>(tr.priced_holds) /
                static_cast<double>(tr.pricing_evaluations);
  m["serve.shed"] = static_cast<double>(tr.jobs_shed);
  m["serve.queue_wait_tu"] = t.queue_wait_tu;
  m["runtime.self_s"] =
      median_of(traced, [](const Episode& e) { return e.runtime_self_s; });
  m["runtime.dispatch_rounds"] =
      static_cast<double>(rt.dispatch_micros.count());
  m["runtime.dispatch_s"] = median_of(traced, [](const Episode& e) {
    return 1e-6 * e.report.runtime.dispatch_micros.sum();
  });
  m["runtime.stage_tasks"] = static_cast<double>(rt.stage_tasks_dispatched);
  m["pool.tasks_executed"] = static_cast<double>(rt.pool_tasks_executed);
  m["pool.slices_per_task"] =
      rt.stage_tasks_dispatched == 0
          ? 0.0
          : static_cast<double>(rt.pool_tasks_executed) /
                static_cast<double>(rt.stage_tasks_dispatched);
  m["pool.peak_queue_depth"] = median_of(traced, [](const Episode& e) {
    return static_cast<double>(e.report.runtime.peak_pool_queue_depth);
  });
  m["obs.events_recorded"] = static_cast<double>(t.obs_recorded);
  m["obs.events_dropped"] = static_cast<double>(t.obs_dropped);
  m["obs.export_s"] =
      median_of(traced, [](const Episode& e) { return e.export_s; });
  m["obs.export_bytes"] = static_cast<double>(t.export_bytes);
  m["trace.rel_throughput"] =
      median_of(traced, [](const Episode& e) { return e.jobs_per_s(); }) /
      untraced_jps;
  m["trace.spans"] = static_cast<double>(t.spans);

  const std::string path = args.out_dir + "/" + args.workload + ".spans.jsonl";
  result.Check(span_log.WriteJsonl(path), "could not write " + path);
  result.Note("spans_written", static_cast<double>(span_log.stored()),
              "count");
  result.Note("spans_dropped", static_cast<double>(span_log.dropped()),
              "count");
  return result;
}

}  // namespace

Result RunServeMixed(const Args& args) {
  // Four tenants, one per arrival pattern, deep queues: the headline
  // serving workload, with observability off.
  Scenario sc;
  sc.config.duration = SimTime{2000.0};
  using workload::ArrivalPattern;
  sc.tenants = {
      Tenant(1, "steady", ArrivalPattern::kHomogeneous, 1.0, 1.0, 4096),
      Tenant(2, "diurnal", ArrivalPattern::kDiurnal, 2.0, 1.0, 4096),
      Tenant(3, "bursty", ArrivalPattern::kBursty, 1.0, 1.5, 4096),
      Tenant(4, "flash", ArrivalPattern::kFlashCrowd, 1.0, 1.0, 4096),
  };
  sc.options.global_max_in_flight = 256;
  return RunServe(sc, args);
}

Result RunServeOverloadObs(const Args& args) {
  // Two tenants far beyond capacity with tiny queues, so admission control
  // sheds most submissions, and the program's trace, metrics and decision
  // audit are on and exported after every episode.
  Scenario sc;
  sc.config.duration = SimTime{2000.0};
  using workload::ArrivalPattern;
  sc.tenants = {
      Tenant(1, "heavy", ArrivalPattern::kBursty, 3.0, 4.0, 16),
      Tenant(2, "light", ArrivalPattern::kHomogeneous, 1.0, 2.0, 16),
  };
  // Short burst cycles (about 100 per episode) keep the shed share close
  // to its long-run mean whatever the seed.
  sc.tenants[0].pattern.mean_burst_len_tu = 5.0;
  sc.tenants[0].pattern.mean_quiet_len_tu = 15.0;
  sc.options.global_max_in_flight = 32;
  sc.observe = true;
  return RunServe(sc, args);
}

}  // namespace perfbench
