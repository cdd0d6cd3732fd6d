#include "scan/obs/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "scan/obs/export_writer.hpp"

namespace scan::obs {

QuantileSketch::QuantileSketch(double relative_accuracy)
    : alpha_(relative_accuracy) {
  if (!(relative_accuracy > 0.0) || !(relative_accuracy < 1.0)) {
    throw std::invalid_argument(
        "QuantileSketch: relative accuracy must be in (0, 1)");
  }
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  log_gamma_ = std::log(gamma_);
}

std::int64_t QuantileSketch::IndexOf(double value) const {
  return static_cast<std::int64_t>(std::ceil(std::log(value) / log_gamma_));
}

double QuantileSketch::ValueOf(std::int64_t index) const {
  // Midpoint of bucket (gamma^(i-1), gamma^i]: within alpha of every
  // value the bucket covers.
  return 2.0 * std::pow(gamma_, static_cast<double>(index)) / (gamma_ + 1.0);
}

void QuantileSketch::Observe(double value) {
  const std::scoped_lock lock(mutex_);
  ++count_;
  sum_ += value;
  if (!(value > kMinIndexable)) {  // non-positive and NaN land here too
    ++zero_count_;
    return;
  }
  const std::int64_t index = IndexOf(std::min(value, kMaxIndexable));
  if (buckets_.empty()) {
    offset_ = index;
    buckets_.push_back(1);
    return;
  }
  if (index < offset_) {
    buckets_.insert(buckets_.begin(),
                    static_cast<std::size_t>(offset_ - index), 0);
    offset_ = index;
  } else if (index >= offset_ + static_cast<std::int64_t>(buckets_.size())) {
    buckets_.resize(static_cast<std::size_t>(index - offset_) + 1, 0);
  }
  ++buckets_[static_cast<std::size_t>(index - offset_)];
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  if (&other == this) {
    const std::scoped_lock lock(mutex_);
    count_ *= 2;
    sum_ *= 2.0;
    zero_count_ *= 2;
    for (auto& b : buckets_) b *= 2;
    return;
  }
  // Consistent order avoids deadlock if two threads merge in both
  // directions (quiescence makes this theoretical, but cheap to be safe).
  const std::scoped_lock lock(std::min(&mutex_, &other.mutex_) == &mutex_
                                  ? mutex_
                                  : other.mutex_,
                              std::min(&mutex_, &other.mutex_) == &mutex_
                                  ? other.mutex_
                                  : mutex_);
  if (other.alpha_ != alpha_) {
    throw std::invalid_argument(
        "QuantileSketch::Merge: relative accuracies differ");
  }
  count_ += other.count_;
  sum_ += other.sum_;
  zero_count_ += other.zero_count_;
  if (other.buckets_.empty()) return;
  if (buckets_.empty()) {
    offset_ = other.offset_;
    buckets_ = other.buckets_;
    return;
  }
  const std::int64_t lo = std::min(offset_, other.offset_);
  const std::int64_t hi =
      std::max(offset_ + static_cast<std::int64_t>(buckets_.size()),
               other.offset_ + static_cast<std::int64_t>(other.buckets_.size()));
  if (lo < offset_) {
    buckets_.insert(buckets_.begin(), static_cast<std::size_t>(offset_ - lo),
                    0);
    offset_ = lo;
  }
  if (hi > offset_ + static_cast<std::int64_t>(buckets_.size())) {
    buckets_.resize(static_cast<std::size_t>(hi - offset_), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[static_cast<std::size_t>(other.offset_ - offset_) + i] +=
        other.buckets_[i];
  }
}

double QuantileSketch::Quantile(double q) const {
  const std::scoped_lock lock(mutex_);
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // 1-based rank of the order statistic we report.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  if (rank <= zero_count_) return 0.0;
  std::uint64_t cumulative = zero_count_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      return ValueOf(offset_ + static_cast<std::int64_t>(i));
    }
  }
  // Unreachable when counters are consistent; report the top bucket.
  return buckets_.empty()
             ? 0.0
             : ValueOf(offset_ + static_cast<std::int64_t>(buckets_.size()) -
                       1);
}

std::uint64_t QuantileSketch::count() const {
  const std::scoped_lock lock(mutex_);
  return count_;
}

double QuantileSketch::sum() const {
  const std::scoped_lock lock(mutex_);
  return sum_;
}

void QuantileSketch::Reset() {
  const std::scoped_lock lock(mutex_);
  buckets_.clear();
  offset_ = 0;
  zero_count_ = 0;
  count_ = 0;
  sum_ = 0.0;
}

void Slo::Observe(double value) {
  if (value <= spec_.threshold) {
    good_.fetch_add(1, std::memory_order_relaxed);
  } else {
    breached_.fetch_add(1, std::memory_order_relaxed);
  }
  sketch_->Observe(value);
}

double Slo::BudgetBurn() const {
  const double g = static_cast<double>(good());
  const double b = static_cast<double>(breached());
  const double total = g + b;
  if (total == 0.0 || spec_.error_budget <= 0.0) return 0.0;
  return (b / total) / spec_.error_budget;
}

void Slo::Reset() {
  good_.store(0, std::memory_order_relaxed);
  breached_.store(0, std::memory_order_relaxed);
}

void WriteSketchPrometheus(ExportWriter& out, const std::string& name,
                           const std::string& help,
                           const QuantileSketch& sketch) {
  if (!help.empty()) out << "# HELP " << name << ' ' << help << '\n';
  out << "# TYPE " << name << " summary\n";
  for (const double q : {0.5, 0.95, 0.99}) {
    out << name << "{quantile=\"" << Label{q} << "\"} "
        << Exact{sketch.Quantile(q)} << '\n';
  }
  out << name << "_sum " << Exact{sketch.sum()} << '\n';
  out << name << "_count " << sketch.count() << '\n';
}

void WriteSloPrometheus(ExportWriter& out, const std::string& name,
                        const std::string& help, const Slo& slo) {
  if (!help.empty()) out << "# HELP " << name << ' ' << help << '\n';
  out << "# TYPE " << name << "_good_total counter\n";
  out << name << "_good_total " << slo.good() << '\n';
  out << "# TYPE " << name << "_breach_total counter\n";
  out << name << "_breach_total " << slo.breached() << '\n';
  out << "# TYPE " << name << "_objective gauge\n";
  out << name << "_objective " << Exact{slo.spec().threshold} << '\n';
  out << "# TYPE " << name << "_observed_quantile gauge\n";
  out << name << "_observed_quantile "
      << Exact{slo.sketch().Quantile(slo.spec().quantile)} << '\n';
  out << "# TYPE " << name << "_budget_burn gauge\n";
  out << name << "_budget_burn " << Exact{slo.BudgetBurn()} << '\n';
}

std::string SketchPrometheusBlock(const std::string& name,
                                  const std::string& help,
                                  const QuantileSketch& sketch) {
  return WriteToString([&](ExportWriter& out) {
    WriteSketchPrometheus(out, name, help, sketch);
  });
}

std::string SloPrometheusBlock(const std::string& name,
                               const std::string& help, const Slo& slo) {
  return WriteToString(
      [&](ExportWriter& out) { WriteSloPrometheus(out, name, help, slo); });
}

}  // namespace scan::obs
