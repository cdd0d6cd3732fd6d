#pragma once

// Mergeable streaming quantile sketch (DDSketch-style) and SLO objects.
//
// The fixed-bucket Histogram answers "how many under X" for hand-picked
// bounds; it cannot answer "what is p99" when observations span decades of
// magnitude (microsecond decisions, hundred-TU job latencies). The
// QuantileSketch guarantees *relative* error instead: with accuracy
// parameter alpha, Quantile(q) returns a value within a factor
// (1 +/- alpha) of the true q-quantile of everything observed, using
// logarithmically spaced buckets
//
//     gamma = (1 + alpha) / (1 - alpha),   index(v) = ceil(log_gamma(v)),
//
// so each bucket i covers (gamma^(i-1), gamma^i] and any value in it is
// approximated by the bucket midpoint 2*gamma^i / (gamma + 1) with
// relative error <= alpha. Bucket counts are exact integers, which makes
// Merge exact, associative, and commutative — sketches from different
// shards/runs combine losslessly.
//
// SLOs: an Slo pairs a sketch with an objective "quantile(q) <= threshold"
// plus an error budget (allowed fraction of breaching observations). Each
// Observe classifies the value as good/breach and forwards it to the
// sketch; budget burn = breach_fraction / error_budget (1.0 = budget
// exactly spent).
//
// Determinism contract: like every obs instrument, sketches never feed
// back into scheduling. Updates are mutex-guarded and gated behind
// MetricsEnabled() at call sites, so the metrics-off hot path is
// unchanged.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace scan::obs {

class QuantileSketch {
 public:
  static constexpr double kDefaultAccuracy = 0.01;
  /// Values below this collapse into the zero bucket; above the max they
  /// clamp. Keeps the dense bucket vector bounded (~3.1k entries at
  /// alpha = 0.01) regardless of input.
  static constexpr double kMinIndexable = 1e-9;
  static constexpr double kMaxIndexable = 1e18;

  explicit QuantileSketch(double relative_accuracy = kDefaultAccuracy);

  /// Records one observation. Values <= kMinIndexable (including all
  /// non-positive values) land in the exact zero bucket. Thread-safe.
  void Observe(double value);

  /// Adds `other`'s contents into this sketch. Exact: bucket counts are
  /// integers aligned by absolute index. Both sketches must share the
  /// same accuracy (throws std::invalid_argument otherwise).
  void Merge(const QuantileSketch& other);

  /// The estimated q-quantile (q in [0, 1]) of everything observed, with
  /// relative error <= relative_accuracy(). Returns 0 when empty.
  [[nodiscard]] double Quantile(double q) const;

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double relative_accuracy() const { return alpha_; }

  void Reset();

 private:
  [[nodiscard]] std::int64_t IndexOf(double value) const;
  [[nodiscard]] double ValueOf(std::int64_t index) const;

  mutable std::mutex mutex_;
  double alpha_;
  double gamma_;
  double log_gamma_;
  /// Dense counts for indices [offset_, offset_ + buckets_.size()).
  /// Grows lazily toward whichever side observations land on.
  std::int64_t offset_ = 0;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t zero_count_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Objective: Quantile(quantile) of the monitored signal stays <=
/// threshold, with at most error_budget of observations allowed to
/// breach the threshold.
struct SloSpec {
  double quantile = 0.99;
  double threshold = 0.0;
  double error_budget = 0.01;
};

class Slo {
 public:
  /// `sketch` backs the observed-quantile exposition; the Slo forwards
  /// every observation to it. Must outlive the Slo (registry-owned in
  /// practice).
  Slo(SloSpec spec, QuantileSketch& sketch) : spec_(spec), sketch_(&sketch) {}

  /// Classifies (value <= threshold -> good) and feeds the sketch.
  void Observe(double value);

  [[nodiscard]] const SloSpec& spec() const { return spec_; }
  [[nodiscard]] QuantileSketch& sketch() const { return *sketch_; }
  [[nodiscard]] std::uint64_t good() const {
    return good_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t breached() const {
    return breached_.load(std::memory_order_relaxed);
  }
  /// (breach fraction) / (error budget); 0 when nothing observed, 1.0
  /// when the budget is exactly spent, > 1 when blown.
  [[nodiscard]] double BudgetBurn() const;
  /// True while the observed objective-quantile is within threshold.
  [[nodiscard]] bool Met() const {
    return sketch_->Quantile(spec_.quantile) <= spec_.threshold;
  }

  void Reset();

 private:
  SloSpec spec_;
  QuantileSketch* sketch_;
  std::atomic<std::uint64_t> good_{0};
  std::atomic<std::uint64_t> breached_{0};
};

class ExportWriter;

/// Prometheus exposition blocks, streamed by MetricsRegistry. The sketch
/// renders as a `summary` with quantile="0.5|0.95|0.99" series plus
/// _sum/_count; the SLO renders good/breach counters and objective /
/// observed-quantile / budget-burn gauges under its name prefix.
void WriteSketchPrometheus(ExportWriter& out, const std::string& name,
                           const std::string& help,
                           const QuantileSketch& sketch);
void WriteSloPrometheus(ExportWriter& out, const std::string& name,
                        const std::string& help, const Slo& slo);

/// The same blocks as strings (for the golden tests).
[[nodiscard]] std::string SketchPrometheusBlock(const std::string& name,
                                                const std::string& help,
                                                const QuantileSketch& sketch);
[[nodiscard]] std::string SloPrometheusBlock(const std::string& name,
                                             const std::string& help,
                                             const Slo& slo);

}  // namespace scan::obs
