// scan_perfbench: one workload of the SCAN end-to-end benchmark per call.
//
//   scan_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR]
//
// The untraced run (--trace 0) publishes the end-to-end metrics; the
// traced run (--trace 1) publishes the per-layer breakdown, timed at the
// public-call boundaries of each layer, plus the tracing overhead. Every
// run checks its outputs; a failed check prints the reason to stderr and
// exits 1 without a result line.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

void Result::Note(const std::string& name, double value,
                  const std::string& unit) {
  std::ostringstream s;
  s.precision(10);
  s << value << ' ' << unit;
  notes.emplace_back(name, s.str());
}

std::uint32_t SpanLog::Name(const std::string& name) {
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void SpanLog::Open(std::uint32_t name, std::uint64_t job) {
  OpenSpan open;
  open.name = name;
  open.job = job;
  if (spans_.size() < capacity_) {
    open.index = static_cast<std::uint32_t>(spans_.size());
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? kNone : stack_.back().index;
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
  open.start_ns = NowNs();
  stack_.push_back(open);
}

void SpanLog::Close() {
  const std::int64_t end = NowNs();
  const OpenSpan open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - open.start_ns;
  Totals& t = totals_[open.name];
  ++t.count;
  t.self_s += 1e-9 * static_cast<double>(dur - open.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (open.index != kNone) {
    Span& span = spans_[open.index];
    span.start_ns = open.start_ns;
    span.end_ns = end;
    span.job = open.job;
  }
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << names_[s.name] << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":";
    if (s.parent == kNone) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << ",\"job\":" << s.job << "}\n";
  }
  return out.good();
}

void LogHistogram::Add(double value) {
  const double v = value < 1.0 ? 1.0 : value;
  const auto bucket =
      static_cast<std::size_t>(std::log(v) / std::log(kGrowth));
  if (bucket >= buckets_.size()) buckets_.resize(bucket + 1, 0);
  ++buckets_[bucket];
  ++count_;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank && buckets_[i] > 0) {
      // Geometric midpoint of the bucket.
      return std::pow(kGrowth, static_cast<double>(i) + 0.5);
    }
  }
  return std::pow(kGrowth, static_cast<double>(buckets_.size()));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(pos));
  if (rank == 0) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

std::uint64_t MixU64(std::uint64_t h, std::uint64_t v) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= kPrime;
  }
  return h;
}

std::uint64_t MixDouble(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return MixU64(h, bits);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The published metric sets; BENCHMARK.json lists the same names.
constexpr MetricSpec kEndToEnd[] = {
    {"jobs_per_s", "1/s"},         {"setup_s", "s"},
    {"peak_rss_mb", "MB"},         {"reward_cost_ratio", "ratio"},
    {"job_latency_p99_tu", "TU"},
};

constexpr MetricSpec kPerLayer[] = {
    {"serve.calls", "count"},
    {"serve.self_s", "s"},
    {"serve.decision_rounds", "count"},
    {"serve.round_p50_us", "us"},
    {"serve.round_p99_us", "us"},
    {"serve.pricing_evaluations", "count"},
    {"serve.priced_hold_ratio", "ratio"},
    {"serve.shed", "count"},
    {"serve.queue_wait_tu", "TU"},
    {"runtime.self_s", "s"},
    {"runtime.dispatch_rounds", "count"},
    {"runtime.dispatch_s", "s"},
    {"runtime.stage_tasks", "count"},
    {"pool.tasks_executed", "count"},
    {"pool.slices_per_task", "ratio"},
    {"pool.peak_queue_depth", "count"},
    {"core.run_s", "s"},
    {"core.dispatch_rounds", "count"},
    {"core.dispatch_s", "s"},
    {"core.public_hires", "count"},
    {"core.private_hires", "count"},
    {"core.reconfigurations", "count"},
    {"core.queue_wait_mean_tu", "TU"},
    {"sim.events", "count"},
    {"sim.event_p50_ns", "ns"},
    {"sim.event_p99_ns", "ns"},
    {"sim.self_s", "s"},
    {"kb.plan_calls", "count"},
    {"kb.plan_s", "s"},
    {"kb.plan_p50_ms", "ms"},
    {"kb.plan_p99_ms", "ms"},
    {"kb.record_calls", "count"},
    {"kb.record_s", "s"},
    {"kb.record_p99_us", "us"},
    {"kb.triples", "count"},
    {"kb.load_s", "s"},
    {"kb.frozen_hit_ratio", "ratio"},
    {"obs.events_recorded", "count"},
    {"obs.events_dropped", "count"},
    {"obs.export_s", "s"},
    {"obs.export_bytes", "bytes"},
    {"trace.rel_throughput", "ratio"},
    {"trace.spans", "count"},
};

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "scan_perfbench: " << why
            << "\nusage: scan_perfbench --workload "
               "serve_mixed|serve_overload_obs|des_fig4|kb_feedback "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);

  std::cout << "host: nproc=" << std::thread::hardware_concurrency()
            << " cpu=\"" << CpuModel() << "\" compiler=\"" << kCompiler
            << "\" build=" << SCAN_PERFBENCH_BUILD_TYPE
            << " exec_threads=" << kExecThreads << "\n";
  std::cout << "run: workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << "\n";

  Result result;
  try {
    std::filesystem::create_directories(args.out_dir);
    if (args.workload == "serve_mixed") {
      result = RunServeMixed(args);
    } else if (args.workload == "serve_overload_obs") {
      result = RunServeOverloadObs(args);
    } else if (args.workload == "des_fig4") {
      result = RunDesFig4(args);
    } else if (args.workload == "kb_feedback") {
      result = RunKbFeedback(args);
    } else {
      Usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "scan_perfbench: " << args.workload << " threw: " << e.what()
              << "\n";
    return 1;
  }

  if (!args.trace) result.metrics["peak_rss_mb"] = PeakRssMb();
  for (const auto& [name, value] : result.notes) {
    std::cout << "note " << name << " = " << value << "\n";
  }

  std::string json = "{\"correct\": ";
  json += result.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& spec, double value) {
    std::cout << "metric " << spec.name << " = " << JsonNumber(value) << " "
              << spec.unit << "\n";
    if (!first) json += ", ";
    first = false;
    json += "\"" + std::string(spec.name) + "\": {\"value\": " +
            JsonNumber(value) + ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (args.trace) {
    // A layer the workload bypasses reports 0: nothing ran there.
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = result.metrics.find(spec.name);
      emit(spec, it == result.metrics.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = result.metrics.find(spec.name);
      if (it == result.metrics.end()) {
        result.errors.push_back(std::string("end-to-end metric missing: ") +
                                spec.name);
        continue;
      }
      emit(spec, it->second);
    }
  }
  json += "}}";
  if (result.attempted == 0) result.errors.push_back("no operation attempted");

  if (!result.errors.empty()) {
    for (const std::string& e : result.errors) {
      std::cerr << "CHECK FAILED: " << e << "\n";
    }
    return 1;
  }
  std::cout << json << std::endl;
  return 0;
}
