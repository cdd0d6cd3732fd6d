#include "scan/obs/audit.hpp"

#include <cmath>
#include <mutex>

#include "scan/obs/export_writer.hpp"

namespace scan::obs {

const char* HireChoiceName(HireChoice choice) {
  switch (choice) {
    case HireChoice::kReuseIdle:
      return "reuse-idle";
    case HireChoice::kReconfigure:
      return "reconfigure";
    case HireChoice::kHirePrivate:
      return "hire-private";
    case HireChoice::kHirePublic:
      return "hire-public";
    case HireChoice::kWait:
      return "wait";
  }
  return "?";
}

const char* AdmissionOutcomeName(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kAdmitted:
      return "admitted";
    case AdmissionOutcome::kShed:
      return "shed";
    case AdmissionOutcome::kReleased:
      return "released";
  }
  return "?";
}

struct DecisionAudit::Impl {
  mutable std::mutex mutex;
  std::vector<HireDecisionRecord> hires;
  std::vector<PlanDecisionRecord> plans;
  std::vector<AdmissionRecord> admissions;
};

DecisionAudit& DecisionAudit::Global() {
  static DecisionAudit audit;
  return audit;
}

DecisionAudit::Impl& DecisionAudit::impl() const {
  static Impl the_impl;
  return the_impl;
}

void DecisionAudit::Clear() {
  Impl& im = impl();
  const std::scoped_lock lock(im.mutex);
  im.hires.clear();
  im.plans.clear();
  im.admissions.clear();
}

void DecisionAudit::RecordHire(const HireDecisionRecord& record) {
  Impl& im = impl();
  const std::scoped_lock lock(im.mutex);
  im.hires.push_back(record);
}

void DecisionAudit::RecordPlan(PlanDecisionRecord record) {
  Impl& im = impl();
  const std::scoped_lock lock(im.mutex);
  im.plans.push_back(std::move(record));
}

void DecisionAudit::RecordAdmission(const AdmissionRecord& record) {
  Impl& im = impl();
  const std::scoped_lock lock(im.mutex);
  im.admissions.push_back(record);
}

std::vector<HireDecisionRecord> DecisionAudit::hires() const {
  Impl& im = impl();
  const std::scoped_lock lock(im.mutex);
  return im.hires;
}

std::vector<PlanDecisionRecord> DecisionAudit::plans() const {
  Impl& im = impl();
  const std::scoped_lock lock(im.mutex);
  return im.plans;
}

std::vector<AdmissionRecord> DecisionAudit::admissions() const {
  Impl& im = impl();
  const std::scoped_lock lock(im.mutex);
  return im.admissions;
}

namespace {

/// A JSON number, or null where JSON has none.
struct NumberOrNull {
  double value;
  bool is_null;
};

/// Unpriced cost fields are NaN.
NumberOrNull NullIfNaN(double value) { return {value, std::isnan(value)}; }
/// A tenant without a budget quota has +inf left.
NumberOrNull NullIfInf(double value) { return {value, std::isinf(value)}; }

ExportWriter& operator<<(ExportWriter& out, NumberOrNull x) {
  if (x.is_null) return out << "null";
  return out << Exact{x.value};
}

}  // namespace

bool DecisionAudit::ExportJsonl(const std::string& path) const {
  ExportWriter out(path);
  Impl& im = impl();
  const std::scoped_lock lock(im.mutex);
  for (const HireDecisionRecord& r : im.hires) {
    out << "{\"type\":\"hire\",\"t\":" << Exact{r.time_tu}
        << ",\"job\":" << r.job_id << ",\"stage\":" << r.stage
        << ",\"threads\":" << r.threads << ",\"choice\":\""
        << HireChoiceName(r.choice) << "\",\"scaling\":\"" << r.scaling
        << "\",\"queue_length\":" << r.queue_length
        << ",\"head_size_du\":" << Exact{r.head_size_du}
        << ",\"delay_cost\":" << NullIfNaN(r.delay_cost)
        << ",\"hire_cost\":" << NullIfNaN(r.hire_cost)
        << ",\"next_free_delay_tu\":" << NullIfNaN(r.next_free_delay_tu)
        << ",\"boot_penalty_tu\":" << Exact{r.boot_penalty_tu}
        << ",\"public_core_price\":" << Exact{r.public_core_price}
        << ",\"rework_factor\":" << Exact{r.rework_factor} << "}\n";
  }
  for (const PlanDecisionRecord& r : im.plans) {
    out << "{\"type\":\"plan\",\"t\":" << Exact{r.time_tu}
        << ",\"job\":" << r.job_id << ",\"size_du\":" << Exact{r.size_du}
        << ",\"allocation\":\"" << r.allocation << "\",\"plan\":[";
    for (std::size_t i = 0; i < r.plan.size(); ++i) {
      if (i > 0) out << ',';
      out << r.plan[i];
    }
    out << "],\"price_hint\":" << Exact{r.price_hint}
        << ",\"predicted_exec_tu\":" << Exact{r.predicted_exec_tu}
        << ",\"predicted_reward\":" << Exact{r.predicted_reward} << "}\n";
  }
  for (const AdmissionRecord& r : im.admissions) {
    out << "{\"type\":\"admission\",\"t\":" << Exact{r.time_tu}
        << ",\"tenant\":" << r.tenant_id << ",\"job\":" << r.job_id
        << ",\"outcome\":\"" << AdmissionOutcomeName(r.outcome)
        << "\",\"queue_depth\":" << r.queue_depth
        << ",\"in_flight\":" << r.in_flight
        << ",\"size_du\":" << Exact{r.size_du}
        << ",\"budget_remaining_tu\":" << NullIfInf(r.budget_remaining_tu)
        << "}\n";
  }
  return out.Close();
}

}  // namespace scan::obs
