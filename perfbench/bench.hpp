#pragma once

// Shared plumbing of the SCAN end-to-end benchmark: run arguments, the
// result record every workload fills, the in-memory span log used by the
// traced run, and small statistics helpers.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span log and observability exports.
  std::string out_dir = ".bench_build/out";
};

/// RuntimeOptions::exec_threads for the serve workloads. Coordinator plus
/// one executor fit any host with two cores, and on a 4-core host one
/// executor served a 2000 TU episode faster and steadier than two or
/// three (the pool's handoff cost grows with its size).
inline constexpr std::size_t kExecThreads = 1;

/// What one workload run produced. `metrics` holds every end-to-end value
/// (untraced runs) or every per-layer value the workload reaches (traced
/// runs); main() picks the published set.
struct Result {
  std::vector<std::string> errors;  ///< failed correctness checks
  std::uint64_t attempted = 0;      ///< operations the benchmark issued
  std::uint64_t failed = 0;         ///< of those, ones that errored
  std::map<std::string, double> metrics;
  /// Extra named values printed for reading, not published in the JSON.
  std::vector<std::pair<std::string, std::string>> notes;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void Note(const std::string& name, double value, const std::string& unit);
};

/// Nested wall-clock spans on one thread, kept in memory and written once
/// at exit. Self time per span name (duration minus the part covered by
/// child spans) is accumulated as spans close, so it stays exact even
/// after the bounded store is full.
class SpanLog {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNone;  ///< index of the parent span, if stored
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t job = 0;         ///< job id for serve spans, else 0
  };

  struct Totals {
    std::uint64_t count = 0;
    double self_s = 0.0;
  };

  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {}

  /// Registers a span name; returns its id (call once per name).
  std::uint32_t Name(const std::string& name);

  void Open(std::uint32_t name, std::uint64_t job = 0);
  void Close();

  void SetJob(std::uint64_t job) {
    if (!stack_.empty()) stack_.back().job = job;
  }

  /// Per-name totals since the last ResetTotals().
  [[nodiscard]] const Totals& totals(std::uint32_t name) const {
    return totals_[name];
  }
  void ResetTotals() {
    for (Totals& t : totals_) t = Totals{};
  }
  [[nodiscard]] std::uint64_t stored() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Writes every stored span as one JSON object per line. False on I/O
  /// failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct OpenSpan {
    std::uint32_t name = 0;
    std::uint32_t index = kNone;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::uint64_t job = 0;
  };

  [[nodiscard]] std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  std::size_t capacity_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<OpenSpan> stack_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Log-bucketed latency histogram (2% relative resolution) for samples too
/// many to keep, such as per-event gaps.
class LogHistogram {
 public:
  void Add(double value);
  [[nodiscard]] double Quantile(double q) const;

 private:
  static constexpr double kGrowth = 1.02;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Exact quantile of a sample (nearest rank on a sorted copy).
[[nodiscard]] double Quantile(std::vector<double> values, double q);
[[nodiscard]] inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

[[nodiscard]] std::uint64_t MixU64(std::uint64_t h, std::uint64_t v);
[[nodiscard]] std::uint64_t MixDouble(std::uint64_t h, double v);
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/// Peak resident set of this process, in MiB.
[[nodiscard]] double PeakRssMb();

// Workload entry points (one per workload name).
Result RunServeMixed(const Args& args);
Result RunServeOverloadObs(const Args& args);
Result RunDesFig4(const Args& args);
Result RunKbFeedback(const Args& args);

}  // namespace perfbench
