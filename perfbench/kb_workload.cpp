// kb_feedback: the Data Broker's advice loop on the production path.
//
// Set-up bulk-loads synthetic application profiles into a KnowledgeBase
// (three times; the median is reported). The timed loop then plays one
// caller that, per job, asks DataBroker::PlanJob for a shard size, runs
// the shards on a modeled cost curve, and feeds the outcome back with
// DataBroker::RecordCompletion — reads interleaved with writes, and no
// explicit Freeze(). One job is one PlanJob plus one RecordCompletion.

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "scan/common/rng.hpp"
#include "scan/core/config.hpp"
#include "scan/core/data_broker.hpp"
#include "scan/kb/knowledge_base.hpp"
#include "scan/workload/reward.hpp"

namespace perfbench {
namespace {

using namespace scan;

constexpr std::size_t kProfiles = 12'000;
/// Jobs whose advice and modeled outcome every repeat must reproduce.
constexpr std::size_t kVerifyJobs = 24;
/// Jobs the deterministic end-to-end metrics are taken over.
constexpr std::size_t kModeledJobs = 800;
/// Jobs per throughput sample.
constexpr std::size_t kChunkJobs = 32;
/// Private-tier price per core-TU (Table III).
constexpr double kCorePrice = 5.0;

/// Per-application cost curve: eTime(s) = fixed + per_gb*s + skew*s^2, so
/// per-GB efficiency peaks at an interior shard size the broker must learn.
struct Curve {
  double fixed = 0.0;
  double per_gb = 0.0;
  double skew = 0.0;
  [[nodiscard]] double ETime(double shard_gb) const {
    return fixed + per_gb * shard_gb + skew * shard_gb * shard_gb;
  }
};

struct Apps {
  std::vector<std::string> names;  ///< the last one has no bootstrap profile
  std::vector<Curve> curves;
};

/// The applications and their cost curves are fixed; the seed drives only
/// the bootstrap profiles and the job sequence.
Apps MakeApps() {
  Apps apps;
  RandomStream rng(0, "kb-feedback/apps");
  for (const char* name : {"GATK", "BWA", "Bowtie2", "SAMtools", "Picard",
                           "FreeBayes", "MaxQuant", "HaplotypeCaller",
                           "BaseRecalibrator", "IndelRealigner", "STAR",
                           "NewTool"}) {
    apps.names.emplace_back(name);
    Curve c;
    c.fixed = rng.Uniform(0.5, 2.5);
    c.per_gb = rng.Uniform(0.4, 1.2);
    c.skew = rng.Uniform(0.02, 0.12);
    apps.curves.push_back(c);
  }
  return apps;
}

std::vector<kb::ApplicationProfile> MakeProfiles(const Apps& apps,
                                                 std::uint64_t seed) {
  std::vector<kb::ApplicationProfile> profiles;
  profiles.reserve(kProfiles);
  RandomStream rng(seed, "kb-feedback/profiles");
  const auto profiled = static_cast<std::uint32_t>(apps.names.size() - 1);
  for (std::size_t i = 0; i < kProfiles; ++i) {
    const std::uint32_t app = rng.UniformBelow(profiled);
    kb::ApplicationProfile p;
    p.application = apps.names[app];
    p.stage = 1 + static_cast<int>(rng.UniformBelow(7));
    p.input_file_size_gb = 0.5 * (1 + rng.UniformBelow(32));  // 0.5..16 GB
    p.etime = apps.curves[app].ETime(p.input_file_size_gb) *
              rng.Uniform(0.97, 1.03);
    p.threads = 1 << rng.UniformBelow(4);
    p.cpu = 8;
    p.ram_gb = 32.0;
    profiles.push_back(std::move(p));
  }
  return profiles;
}

struct JobInput {
  std::uint32_t app = 0;
  double size_gb = 0.0;
  double noise = 1.0;
};

/// The job sequence of one seed; every fresh stream replays it.
class JobStream {
 public:
  JobStream(const Apps& apps, std::uint64_t seed)
      : rng_(seed, "kb-feedback/jobs"),
        apps_(static_cast<std::uint32_t>(apps.names.size())) {}

  JobInput Next() {
    JobInput job;
    job.app = rng_.UniformBelow(apps_);
    job.size_gb = rng_.Uniform(2.0, 40.0);
    job.noise = rng_.Uniform(0.97, 1.03);
    return job;
  }

 private:
  RandomStream rng_;
  std::uint32_t apps_;
};

/// A loaded knowledge base and its broker.
struct Loaded {
  std::unique_ptr<kb::KnowledgeBase> kb;
  std::unique_ptr<core::DataBroker> broker;
  double setup_s = 0.0;
  double load_s = 0.0;
};

Loaded Load(const Apps& apps, std::uint64_t seed) {
  Loaded loaded;
  const auto t0 = Clock::now();
  const std::vector<kb::ApplicationProfile> profiles =
      MakeProfiles(apps, seed);
  loaded.kb = std::make_unique<kb::KnowledgeBase>();
  const auto t1 = Clock::now();
  (void)loaded.kb->AddProfilesBulk(profiles);
  loaded.load_s = SecondsSince(t1);
  loaded.broker = std::make_unique<core::DataBroker>(*loaded.kb);
  loaded.setup_s = SecondsSince(t0);
  return loaded;
}

/// The modeled result of one job (deterministic given the advice).
struct Outcome {
  bool ok = false;
  double latency_tu = 0.0;
  double reward_cu = 0.0;
  double cost_cu = 0.0;
  std::uint64_t digest = 0;
};

struct Timing {
  double plan_s = 0.0;
  double record_s = 0.0;
  bool frozen = false;
};

Outcome RunJob(core::DataBroker& broker, const kb::KnowledgeBase& knowledge,
               const Apps& apps, const workload::RewardFunction& reward,
               const JobInput& job, std::uint64_t job_id, SpanLog* spans,
               const std::uint32_t span_ids[2], Timing& timing) {
  Outcome out;
  const std::string& app = apps.names[job.app];
  timing.frozen = knowledge.FrozenFresh();

  const auto t0 = Clock::now();
  if (spans != nullptr) spans->Open(span_ids[0], job_id);
  const scan::Result<core::BrokerPlan> plan = broker.PlanJob(app, job.size_gb);
  if (spans != nullptr) spans->Close();
  timing.plan_s = SecondsSince(t0);
  if (!plan.ok()) return out;

  // Shards run in parallel: latency is one shard's eTime; each shard bills
  // its recommended cores for that long.
  const double shard_gb = plan->shard_size_gb;
  const int cpu = plan->recommended_cpu > 0 ? plan->recommended_cpu : 4;
  const double latency = apps.curves[job.app].ETime(shard_gb) * job.noise;
  const double cost =
      static_cast<double>(plan->shard_count) * cpu * latency * kCorePrice;

  const auto t1 = Clock::now();
  if (spans != nullptr) spans->Open(span_ids[1], job_id);
  broker.RecordCompletion(app, 0, shard_gb, cpu, latency, cpu,
                          plan->recommended_ram_gb);
  if (spans != nullptr) spans->Close();
  timing.record_s = SecondsSince(t1);

  out.ok = true;
  out.latency_tu = latency;
  out.reward_cu = reward(DataSize{job.size_gb}, SimTime{latency}).value();
  out.cost_cu = cost;
  std::uint64_t d = kFnvBasis;
  d = MixDouble(d, shard_gb);
  d = MixU64(d, plan->shard_count);
  d = MixU64(d, static_cast<std::uint64_t>(plan->recommended_cpu));
  for (const char ch : plan->advice_source) {
    d = MixU64(d, static_cast<unsigned char>(ch));
  }
  out.digest = d;
  return out;
}

}  // namespace

Result RunKbFeedback(const Args& args) {
  Result result;
  const Apps apps = MakeApps();
  const workload::RewardFunction reward(
      core::SimulationConfig{}.MakeRewardParams());

  SpanLog span_log(std::size_t{1} << 16);
  const std::uint32_t span_ids[2] = {span_log.Name("kb.plan_job"),
                                     span_log.Name("kb.record_completion")};

  // Set-up, three times. The first two loads also replay the verification
  // prefix; the timed loop below must reproduce its advice checksum.
  std::vector<double> setup_s;
  std::vector<double> load_s;
  std::vector<std::uint64_t> checksums;
  Loaded loaded;
  for (int rep = 0; rep < 3; ++rep) {
    loaded = Loaded{};  // free the previous copy before building the next
    loaded = Load(apps, args.seed);
    setup_s.push_back(loaded.setup_s);
    load_s.push_back(loaded.load_s);
    if (rep == 2) break;
    JobStream prefix(apps, args.seed);
    std::uint64_t sum = kFnvBasis;
    for (std::size_t i = 0; i < kVerifyJobs; ++i) {
      Timing timing;
      const Outcome o = RunJob(*loaded.broker, *loaded.kb, apps, reward,
                               prefix.Next(), i, nullptr, span_ids, timing);
      sum = MixU64(sum, o.digest);
    }
    checksums.push_back(sum);
  }

  // Timed loop: chunks of jobs until --seconds have passed and the modeled
  // prefix is complete. Traced runs alternate untraced and traced chunks.
  JobStream jobs(apps, args.seed);
  std::vector<double> plan_ms;
  std::vector<double> record_us;
  std::vector<double> latencies;
  std::vector<double> plain_rate;
  std::vector<double> traced_rate;
  double reward_cu = 0.0;
  double cost_cu = 0.0;
  double plan_total_s = 0.0;
  double record_total_s = 0.0;
  std::uint64_t frozen_plans = 0;
  std::uint64_t verify_sum = kFnvBasis;
  std::size_t done = 0;
  const auto start = Clock::now();
  for (std::size_t chunk = 0;; ++chunk) {
    const bool trace_this = args.trace && chunk % 2 == 1;
    const auto c0 = Clock::now();
    for (std::size_t k = 0; k < kChunkJobs; ++k, ++done) {
      Timing timing;
      const Outcome o = RunJob(*loaded.broker, *loaded.kb, apps, reward,
                               jobs.Next(), done,
                               trace_this ? &span_log : nullptr, span_ids,
                               timing);
      ++result.attempted;
      if (!o.ok) {
        ++result.failed;
        continue;
      }
      plan_ms.push_back(1e3 * timing.plan_s);
      record_us.push_back(1e6 * timing.record_s);
      plan_total_s += timing.plan_s;
      record_total_s += timing.record_s;
      if (timing.frozen) ++frozen_plans;
      if (done < kVerifyJobs) verify_sum = MixU64(verify_sum, o.digest);
      if (done < kModeledJobs) {
        latencies.push_back(o.latency_tu);
        reward_cu += o.reward_cu;
        cost_cu += o.cost_cu;
      }
    }
    const double rate = static_cast<double>(kChunkJobs) / SecondsSince(c0);
    (trace_this ? traced_rate : plain_rate).push_back(rate);
    if (done >= kModeledJobs && SecondsSince(start) >= args.seconds) break;
  }
  const double loop_s = SecondsSince(start);

  for (const std::uint64_t sum : checksums) {
    result.Check(sum == verify_sum,
                 "advice checksum of the verification prefix differs "
                 "between loads of the same seed");
  }
  result.Check(result.failed == 0,
               std::to_string(result.failed) + " PlanJob calls failed");
  if (!result.errors.empty()) return result;

  const double plans = static_cast<double>(result.attempted);
  result.Note("jobs", plans, "count");
  result.Note("fail_ratio", static_cast<double>(result.failed) / plans,
              "ratio");
  result.Note("profit_per_job_cu",
              (reward_cu - cost_cu) / static_cast<double>(kModeledJobs), "CU");
  result.Note("broker_ops_per_s", plans / loop_s, "1/s");
  result.Note("plan_p50_ms", Quantile(plan_ms, 0.5), "ms");
  result.Note("plan_p99_ms", Quantile(plan_ms, 0.99), "ms");
  result.Note("plan_samples_beyond_p99",
              static_cast<double>(plan_ms.size()) * 0.01, "count");
  result.Note("record_p99_us", Quantile(record_us, 0.99), "us");

  if (!args.trace) {
    result.metrics["jobs_per_s"] = Median(plain_rate);
    result.metrics["setup_s"] = Median(setup_s);
    result.metrics["reward_cost_ratio"] = reward_cu / cost_cu;
    result.metrics["job_latency_p99_tu"] = Quantile(latencies, 0.99);
    return result;
  }

  auto& m = result.metrics;
  m["kb.plan_calls"] = plans;
  m["kb.plan_s"] = plan_total_s;
  m["kb.plan_p50_ms"] = Quantile(plan_ms, 0.5);
  m["kb.plan_p99_ms"] = Quantile(plan_ms, 0.99);
  m["kb.record_calls"] = plans;
  m["kb.record_s"] = record_total_s;
  m["kb.record_p99_us"] = Quantile(record_us, 0.99);
  m["kb.triples"] = static_cast<double>(loaded.kb->store().size());
  m["kb.load_s"] = Median(load_s);
  m["kb.frozen_hit_ratio"] = static_cast<double>(frozen_plans) / plans;
  m["trace.rel_throughput"] = Median(traced_rate) / Median(plain_rate);
  m["trace.spans"] = static_cast<double>(span_log.stored());

  const std::string path = args.out_dir + "/" + args.workload + ".spans.jsonl";
  result.Check(span_log.WriteJsonl(path), "could not write " + path);
  return result;
}

}  // namespace perfbench
