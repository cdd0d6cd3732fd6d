#pragma once

// Scheduler decision audit log: one record per hire-vs-wait decision and
// one per thread-allocation (plan) decision, together with the inputs the
// paper's Sec. III reward scheduler weighed — delay cost (Eq. 1), hire cost,
// the resource price rates, and the predicted execution/reward of the
// chosen plan. Makes "why did it hire here?" answerable after the fact.
//
// The audit is purely observational: recording copies values the decision
// code already computed, never draws randomness, and never feeds back —
// enabling it leaves schedules (and parity digests) bit-identical.
//
// Records are appended under a mutex: decisions happen on the coordinator
// thread at scheduling (not execution) frequency, so contention is nil.

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace scan::obs {

namespace internal {
inline std::atomic<bool> g_audit_enabled{false};
}  // namespace internal

[[nodiscard]] inline bool AuditEnabled() {
  return internal::g_audit_enabled.load(std::memory_order_relaxed);
}

/// What the dispatcher did with the head of a stage queue.
enum class HireChoice : std::uint8_t {
  kReuseIdle = 0,   ///< idle worker already configured with the thread count
  kReconfigure,     ///< idle worker resized (boot penalty)
  kHirePrivate,     ///< fresh hire on the private (cheap) tier
  kHirePublic,      ///< fresh hire on the public tier
  kWait,            ///< left queued (never-scale, or Eq. 1 said waiting is
                    ///< cheaper than hiring)
};

[[nodiscard]] const char* HireChoiceName(HireChoice choice);

/// One hire-vs-wait decision. Cost fields are NaN when the predictive
/// inequality was not evaluated (e.g. reuse-idle short-circuits it).
struct HireDecisionRecord {
  double time_tu = 0.0;
  std::uint64_t job_id = 0;
  std::size_t stage = 0;
  int threads = 0;
  HireChoice choice = HireChoice::kWait;
  /// Name of the scaling algorithm in effect (static string).
  const char* scaling = "";
  std::size_t queue_length = 0;  ///< stage queue length at decision time
  double head_size_du = 0.0;
  /// Eq. 1 cost of waiting vs. cost of hiring now; NaN when the decision
  /// short-circuited before pricing (reuse-idle, never/always-scale).
  double delay_cost = std::numeric_limits<double>::quiet_NaN();
  double hire_cost = std::numeric_limits<double>::quiet_NaN();
  /// Time until the earliest busy worker frees; NaN when none was busy.
  double next_free_delay_tu = std::numeric_limits<double>::quiet_NaN();
  double boot_penalty_tu = 0.0;
  double public_core_price = 0.0;
  /// Expected-rework inflation priced into the hire cost (1.0 when crash
  /// pricing is off or checkpointing makes rework negligible).
  double rework_factor = 1.0;
};

/// What the serving front end did with one tenant job submission.
enum class AdmissionOutcome : std::uint8_t {
  kAdmitted = 0,  ///< accepted into the tenant's FIFO queue
  kShed,          ///< rejected: the tenant's bounded queue was full
  kReleased,      ///< dequeued and handed to the platform by the dispatcher
};

[[nodiscard]] const char* AdmissionOutcomeName(AdmissionOutcome outcome);

/// One admission-control event at the multi-tenant front end. Queue depth
/// and in-flight are the tenant's values *after* the event took effect.
struct AdmissionRecord {
  double time_tu = 0.0;
  std::uint64_t tenant_id = 0;
  std::uint64_t job_id = 0;
  AdmissionOutcome outcome = AdmissionOutcome::kAdmitted;
  std::size_t queue_depth = 0;
  std::size_t in_flight = 0;
  double size_du = 0.0;
  /// Worker-TU budget the tenant has left in the current quota epoch;
  /// +inf when the tenant has no budget quota.
  double budget_remaining_tu = 0.0;
};

/// One thread-allocation decision (job admission).
struct PlanDecisionRecord {
  double time_tu = 0.0;
  std::uint64_t job_id = 0;
  double size_du = 0.0;
  /// Name of the allocation algorithm (static string).
  const char* allocation = "";
  std::vector<int> plan;  ///< threads per stage
  double price_hint = 0.0;          ///< core price the optimizer assumed
  double predicted_exec_tu = 0.0;   ///< sum of modeled stage times under plan
  double predicted_reward = 0.0;    ///< reward if it finished in exec time
};

/// Process-wide decision audit. Enable/Clear/Export follow the recorder's
/// quiescence contract; Record* may be called from the coordinator thread
/// while enabled.
class DecisionAudit {
 public:
  [[nodiscard]] static DecisionAudit& Global();

  DecisionAudit(const DecisionAudit&) = delete;
  DecisionAudit& operator=(const DecisionAudit&) = delete;

  void Enable() {
    internal::g_audit_enabled.store(true, std::memory_order_release);
  }
  void Disable() {
    internal::g_audit_enabled.store(false, std::memory_order_release);
  }
  void Clear();

  void RecordHire(const HireDecisionRecord& record);
  void RecordPlan(PlanDecisionRecord record);
  void RecordAdmission(const AdmissionRecord& record);

  [[nodiscard]] std::vector<HireDecisionRecord> hires() const;
  [[nodiscard]] std::vector<PlanDecisionRecord> plans() const;
  [[nodiscard]] std::vector<AdmissionRecord> admissions() const;

  /// One JSON object per line; hire records carry "type":"hire", plan
  /// records "type":"plan", admission records "type":"admission". NaN
  /// cost fields and infinite budgets are emitted as null. False if the
  /// file could not be opened, written or closed.
  bool ExportJsonl(const std::string& path) const;

 private:
  DecisionAudit() = default;
  struct Impl;
  [[nodiscard]] Impl& impl() const;
};

}  // namespace scan::obs
