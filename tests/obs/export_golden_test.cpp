// Byte-exact golden tests for the obs exporters: trace JSONL, Chrome trace
// JSON, decision-audit JSONL and the metrics exposition. The inputs hit the
// number-format edge cases (-0.0, the smallest subnormal, 1e300, 0.1, NaN
// costs and infinite budgets rendered as null, UINT64_MAX ids) and every
// EventKind name, so any drift in how a field is rendered, ordered or
// escaped shows up as a diff against the pinned text.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "scan/obs/audit.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/obs/sketch.hpp"
#include "scan/obs/span.hpp"
#include "scan/obs/trace.hpp"

namespace scan::obs {
namespace {

constexpr std::uint64_t kMaxId = std::numeric_limits<std::uint64_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTiny = 5e-324;  // smallest positive subnormal

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Runs `export_fn(path)` into a scratch file and returns the file's bytes.
template <typename ExportFn>
std::string ExportToString(const std::string& name, ExportFn export_fn) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(export_fn(path));
  std::string text = ReadAll(path);
  std::remove(path.c_str());
  return text;
}

class ExportGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override { Reset(); }
  void TearDown() override { Reset(); }
  static void Reset() {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
    DecisionAudit::Global().Disable();
    DecisionAudit::Global().Clear();
  }
};

/// One event of every kind, out of time order with ties, plus two events
/// from a second thread that tie with the first lane (ties keep lane
/// order). The slice span id is UINT64_MAX, so its flow arrow into the
/// job-complete event anchors on an all-ones id.
void EmitSampleTrace() {
  const std::uint64_t job = JobSpan(7);
  const std::uint64_t stage = StageSpan(7, 0, 0);
  TraceRecorder::Global().Enable();
  TraceEmit(EventKind::kJobArrival, 0.1, 0, 7, 0, kTiny, 0.0, job, 0);
  TraceEmit(EventKind::kShardSplit, 0.1, 0, 7, 3, 0.1);
  TraceEmit(EventKind::kQueueEnqueue, -0.0, 0, 7, 0, 0.0, 0.0, stage, job);
  TraceEmit(EventKind::kQueueDequeue, 2.5, 0, 7, 0, 0.1 + 0.2, 0.0, stage,
            job);
  TraceEmit(EventKind::kWorkerHire, 2.5, kMaxId, 7, 1, 1e300, 0.0, stage,
            job);
  TraceEmit(EventKind::kWorkerRelease, 1e300, 4, 0);
  TraceEmit(EventKind::kWorkerFailure, 3.0, 4, kMaxId, kMaxId, 0.0, 0.0,
            stage, job);
  TraceEmit(EventKind::kTaskRetry, 3.25, 0, 7, 0, 0.0, 0.0,
            StageSpan(7, 0, 1), stage);
  TraceEmit(EventKind::kStageExec, 2.75, 4, 7, 0, 4.0, 0.1, stage, job);
  TraceEmit(EventKind::kStageSlice, 2.75, 1, 11, 0, 0.0, kTiny, kMaxId,
            stage);
  TraceEmit(EventKind::kTicketDelivery, 2.85, 0, kMaxId, 0, 0.0, 0.0, stage);
  TraceEmit(EventKind::kJobComplete, 4.0, 0, 7, 0, 1.0 / 3.0, 0.0, job,
            kMaxId);
  TraceEmit(EventKind::kDecision, 1.5, 2, 7, 0, -0.0, 0.0, stage, job);
  TraceEmit(EventKind::kStraggle, 2.0, 4, 7, 0,
            std::numeric_limits<double>::max(), 0.0, stage, job);
  TraceEmit(EventKind::kWorkerFlap, 2.0, 4, 7, 0,
            std::numeric_limits<double>::min(), 0.0, stage, job);
  TraceEmit(EventKind::kBreakerOpen, 2.0, 4, 0, 0, 123456789012345678.0);
  TraceEmit(EventKind::kCheckpoint, 3.0, 0, 7, 0, 0.5, 0.0, stage, job);
  TraceEmit(EventKind::kRetryBackoff, 3.0, 0, 7, 0, -1e-5, 0.0, stage, job);
  TraceEmit(EventKind::kSpeculativeLaunch, 3.5, 4, 7, 0, 100.0, 0.0,
            StageSpan(7, 0, 1, true), StageSpan(7, 0, 1));
  TraceEmit(EventKind::kSpeculativeWasted, 3.5, 4, 7, 0, 1e21, 0.0,
            StageSpan(7, 0, 0));
  TraceEmit(EventKind::kJobAbandoned, 5.0, 0, 8, 1, 3.0, 0.0, JobSpan(8),
            StageSpan(8, 1, 2));
  std::thread other([] {
    TraceEmit(EventKind::kStageSlice, 0.1, 1, 12, 1, 0.0, 0.25,
              SliceSpan(12, 1), StageSpan(7, 0, 0));
    TraceEmit(EventKind::kStageSlice, 2.75, 1, 12, 2, 0.0, 0.5,
              SliceSpan(12, 2), StageSpan(7, 0, 0));
  });
  other.join();
  TraceRecorder::Global().Disable();
}

TEST_F(ExportGoldenTest, TraceJsonlIsPinned) {
  EmitSampleTrace();
  const std::string text =
      ExportToString("golden_trace.jsonl", [](const std::string& path) {
        return TraceRecorder::Global().ExportJsonl(path);
      });
  const std::string golden = R"golden({"t":-0,"dur":0,"kind":"queue-enqueue","track":0,"a":7,"b":0,"v":0,"span":9223372036854804480,"parent":4611686018427387911}
{"t":0.10000000000000001,"dur":0,"kind":"job-arrival","track":0,"a":7,"b":0,"v":4.9406564584124654e-324,"span":4611686018427387911,"parent":0}
{"t":0.10000000000000001,"dur":0,"kind":"shard-split","track":0,"a":7,"b":3,"v":0.10000000000000001,"span":0,"parent":0}
{"t":0.10000000000000001,"dur":0.25,"kind":"stage-slice","track":1,"a":12,"b":1,"v":0,"span":13835058055282166785,"parent":9223372036854804480}
{"t":1.5,"dur":0,"kind":"decision","track":2,"a":7,"b":0,"v":-0,"span":9223372036854804480,"parent":4611686018427387911}
{"t":2,"dur":0,"kind":"straggle","track":4,"a":7,"b":0,"v":1.7976931348623157e+308,"span":9223372036854804480,"parent":4611686018427387911}
{"t":2,"dur":0,"kind":"worker-flap","track":4,"a":7,"b":0,"v":2.2250738585072014e-308,"span":9223372036854804480,"parent":4611686018427387911}
{"t":2,"dur":0,"kind":"breaker-open","track":4,"a":0,"b":0,"v":1.2345678901234568e+17,"span":0,"parent":0}
{"t":2.5,"dur":0,"kind":"queue-dequeue","track":0,"a":7,"b":0,"v":0.30000000000000004,"span":9223372036854804480,"parent":4611686018427387911}
{"t":2.5,"dur":0,"kind":"worker-hire","track":18446744073709551615,"a":7,"b":1,"v":1.0000000000000001e+300,"span":9223372036854804480,"parent":4611686018427387911}
{"t":2.75,"dur":0.10000000000000001,"kind":"stage-exec","track":4,"a":7,"b":0,"v":4,"span":9223372036854804480,"parent":4611686018427387911}
{"t":2.75,"dur":4.9406564584124654e-324,"kind":"stage-slice","track":1,"a":11,"b":0,"v":0,"span":18446744073709551615,"parent":9223372036854804480}
{"t":2.75,"dur":0.5,"kind":"stage-slice","track":1,"a":12,"b":2,"v":0,"span":13835058055282166786,"parent":9223372036854804480}
{"t":2.8500000000000001,"dur":0,"kind":"ticket-delivery","track":0,"a":18446744073709551615,"b":0,"v":0,"span":9223372036854804480,"parent":0}
{"t":3,"dur":0,"kind":"worker-failure","track":4,"a":18446744073709551615,"b":18446744073709551615,"v":0,"span":9223372036854804480,"parent":4611686018427387911}
{"t":3,"dur":0,"kind":"checkpoint","track":0,"a":7,"b":0,"v":0.5,"span":9223372036854804480,"parent":4611686018427387911}
{"t":3,"dur":0,"kind":"retry-backoff","track":0,"a":7,"b":0,"v":-1.0000000000000001e-05,"span":9223372036854804480,"parent":4611686018427387911}
{"t":3.25,"dur":0,"kind":"task-retry","track":0,"a":7,"b":0,"v":0,"span":9223372036854804482,"parent":9223372036854804480}
{"t":3.5,"dur":0,"kind":"speculative-launch","track":4,"a":7,"b":0,"v":100,"span":9223372036854804483,"parent":9223372036854804482}
{"t":3.5,"dur":0,"kind":"speculative-wasted","track":4,"a":7,"b":0,"v":1e+21,"span":9223372036854804480,"parent":0}
{"t":4,"dur":0,"kind":"job-complete","track":0,"a":7,"b":0,"v":0.33333333333333331,"span":4611686018427387911,"parent":18446744073709551615}
{"t":5,"dur":0,"kind":"job-abandoned","track":0,"a":8,"b":1,"v":3,"span":4611686018427387912,"parent":9223372036854808612}
{"t":1.0000000000000001e+300,"dur":0,"kind":"worker-release","track":4,"a":0,"b":0,"v":0,"span":0,"parent":0}
)golden";
  EXPECT_EQ(text, golden);
}

TEST_F(ExportGoldenTest, TraceChromeJsonIsPinned) {
  EmitSampleTrace();
  const std::string text =
      ExportToString("golden_trace.json", [](const std::string& path) {
        return TraceRecorder::Global().ExportChromeJson(path);
      });
  const std::string golden = R"golden({"traceEvents":[
{"name":"queue-enqueue","cat":"scan","ph":"i","s":"t","ts":-0,"pid":1,"tid":0,"args":{"a":7,"b":0,"v":0,"span":9223372036854804480,"parent":4611686018427387911}},
{"name":"job-arrival","cat":"scan","ph":"i","s":"t","ts":100,"pid":1,"tid":0,"args":{"a":7,"b":0,"v":4.9406564584124654e-324,"span":4611686018427387911,"parent":0}},
{"name":"shard-split","cat":"scan","ph":"i","s":"t","ts":100,"pid":1,"tid":0,"args":{"a":7,"b":3,"v":0.10000000000000001,"span":0,"parent":0}},
{"name":"stage-slice","cat":"scan","ph":"X","ts":100,"dur":250,"pid":1,"tid":1,"args":{"a":12,"b":1,"v":0,"span":13835058055282166785,"parent":9223372036854804480}},
{"name":"causal","cat":"scan-flow","ph":"s","id":1,"ts":2750,"pid":1,"tid":4},
{"name":"causal","cat":"scan-flow","ph":"f","bp":"e","id":1,"ts":100,"pid":1,"tid":1},
{"name":"decision","cat":"scan","ph":"i","s":"t","ts":1500,"pid":1,"tid":2,"args":{"a":7,"b":0,"v":-0,"span":9223372036854804480,"parent":4611686018427387911}},
{"name":"straggle","cat":"scan","ph":"i","s":"t","ts":2000,"pid":1,"tid":4,"args":{"a":7,"b":0,"v":1.7976931348623157e+308,"span":9223372036854804480,"parent":4611686018427387911}},
{"name":"worker-flap","cat":"scan","ph":"i","s":"t","ts":2000,"pid":1,"tid":4,"args":{"a":7,"b":0,"v":2.2250738585072014e-308,"span":9223372036854804480,"parent":4611686018427387911}},
{"name":"breaker-open","cat":"scan","ph":"i","s":"t","ts":2000,"pid":1,"tid":4,"args":{"a":0,"b":0,"v":1.2345678901234568e+17,"span":0,"parent":0}},
{"name":"queue-dequeue","cat":"scan","ph":"i","s":"t","ts":2500,"pid":1,"tid":0,"args":{"a":7,"b":0,"v":0.30000000000000004,"span":9223372036854804480,"parent":4611686018427387911}},
{"name":"worker-hire","cat":"scan","ph":"i","s":"t","ts":2500,"pid":1,"tid":18446744073709551615,"args":{"a":7,"b":1,"v":1.0000000000000001e+300,"span":9223372036854804480,"parent":4611686018427387911}},
{"name":"stage-exec","cat":"scan","ph":"X","ts":2750,"dur":100,"pid":1,"tid":4,"args":{"a":7,"b":0,"v":4,"span":9223372036854804480,"parent":4611686018427387911}},
{"name":"causal","cat":"scan-flow","ph":"s","id":2,"ts":100,"pid":1,"tid":0},
{"name":"causal","cat":"scan-flow","ph":"f","bp":"e","id":2,"ts":2750,"pid":1,"tid":4},
{"name":"stage-slice","cat":"scan","ph":"X","ts":2750,"dur":4.9406564584124654e-321,"pid":1,"tid":1,"args":{"a":11,"b":0,"v":0,"span":18446744073709551615,"parent":9223372036854804480}},
{"name":"causal","cat":"scan-flow","ph":"s","id":3,"ts":2750,"pid":1,"tid":4},
{"name":"causal","cat":"scan-flow","ph":"f","bp":"e","id":3,"ts":2750,"pid":1,"tid":1},
{"name":"stage-slice","cat":"scan","ph":"X","ts":2750,"dur":500,"pid":1,"tid":1,"args":{"a":12,"b":2,"v":0,"span":13835058055282166786,"parent":9223372036854804480}},
{"name":"causal","cat":"scan-flow","ph":"s","id":4,"ts":2750,"pid":1,"tid":4},
{"name":"causal","cat":"scan-flow","ph":"f","bp":"e","id":4,"ts":2750,"pid":1,"tid":1},
{"name":"ticket-delivery","cat":"scan","ph":"i","s":"t","ts":2850,"pid":1,"tid":0,"args":{"a":18446744073709551615,"b":0,"v":0,"span":9223372036854804480,"parent":0}},
{"name":"worker-failure","cat":"scan","ph":"i","s":"t","ts":3000,"pid":1,"tid":4,"args":{"a":18446744073709551615,"b":18446744073709551615,"v":0,"span":9223372036854804480,"parent":4611686018427387911}},
{"name":"checkpoint","cat":"scan","ph":"i","s":"t","ts":3000,"pid":1,"tid":0,"args":{"a":7,"b":0,"v":0.5,"span":9223372036854804480,"parent":4611686018427387911}},
{"name":"retry-backoff","cat":"scan","ph":"i","s":"t","ts":3000,"pid":1,"tid":0,"args":{"a":7,"b":0,"v":-1.0000000000000001e-05,"span":9223372036854804480,"parent":4611686018427387911}},
{"name":"task-retry","cat":"scan","ph":"i","s":"t","ts":3250,"pid":1,"tid":0,"args":{"a":7,"b":0,"v":0,"span":9223372036854804482,"parent":9223372036854804480}},
{"name":"speculative-launch","cat":"scan","ph":"i","s":"t","ts":3500,"pid":1,"tid":4,"args":{"a":7,"b":0,"v":100,"span":9223372036854804483,"parent":9223372036854804482}},
{"name":"speculative-wasted","cat":"scan","ph":"i","s":"t","ts":3500,"pid":1,"tid":4,"args":{"a":7,"b":0,"v":1e+21,"span":9223372036854804480,"parent":0}},
{"name":"job-complete","cat":"scan","ph":"i","s":"t","ts":4000,"pid":1,"tid":0,"args":{"a":7,"b":0,"v":0.33333333333333331,"span":4611686018427387911,"parent":18446744073709551615}},
{"name":"causal","cat":"scan-flow","ph":"s","id":5,"ts":2750,"pid":1,"tid":1},
{"name":"causal","cat":"scan-flow","ph":"f","bp":"e","id":5,"ts":4000,"pid":1,"tid":0},
{"name":"job-abandoned","cat":"scan","ph":"i","s":"t","ts":5000,"pid":1,"tid":0,"args":{"a":8,"b":1,"v":3,"span":4611686018427387912,"parent":9223372036854808612}},
{"name":"worker-release","cat":"scan","ph":"i","s":"t","ts":1e+303,"pid":1,"tid":4,"args":{"a":0,"b":0,"v":0,"span":0,"parent":0}}
]}
)golden";
  EXPECT_EQ(text, golden);
}

/// A wrapped ring exports its oldest surviving event first, then the
/// merged stream is time-sorted.
TEST_F(ExportGoldenTest, WrappedRingJsonlIsPinned) {
  TraceRecorder::Global().Enable(4);
  for (const double t : {5.0, 1.0, 4.0, 2.0, 2.0, 0.0}) {
    TraceEmit(EventKind::kJobArrival, t, 0,
              static_cast<std::uint64_t>(t * 10));
  }
  TraceRecorder::Global().Disable();
  const std::string text =
      ExportToString("golden_ring.jsonl", [](const std::string& path) {
        return TraceRecorder::Global().ExportJsonl(path);
      });
  const std::string golden = R"golden({"t":0,"dur":0,"kind":"job-arrival","track":0,"a":0,"b":0,"v":0,"span":0,"parent":0}
{"t":2,"dur":0,"kind":"job-arrival","track":0,"a":20,"b":0,"v":0,"span":0,"parent":0}
{"t":2,"dur":0,"kind":"job-arrival","track":0,"a":20,"b":0,"v":0,"span":0,"parent":0}
{"t":4,"dur":0,"kind":"job-arrival","track":0,"a":40,"b":0,"v":0,"span":0,"parent":0}
)golden";
  EXPECT_EQ(text, golden);
}

TEST_F(ExportGoldenTest, EmptyTraceExportsAreMinimal) {
  EXPECT_EQ(ExportToString("golden_empty.jsonl",
                           [](const std::string& path) {
                             return TraceRecorder::Global().ExportJsonl(path);
                           }),
            "");
  EXPECT_EQ(ExportToString("golden_empty.json",
                           [](const std::string& path) {
                             return TraceRecorder::Global().ExportChromeJson(
                                 path);
                           }),
            "{\"traceEvents\":[\n]}\n");
}

TEST_F(ExportGoldenTest, AuditJsonlIsPinned) {
  DecisionAudit& audit = DecisionAudit::Global();
  const HireChoice choices[] = {HireChoice::kReuseIdle,
                                HireChoice::kReconfigure,
                                HireChoice::kHirePrivate,
                                HireChoice::kHirePublic, HireChoice::kWait};
  std::uint64_t job = 0;
  for (const HireChoice choice : choices) {
    HireDecisionRecord r;  // cost fields stay NaN: exported as null
    r.time_tu = 0.1 * static_cast<double>(job);
    r.job_id = job++;
    r.stage = 3;
    r.threads = 8;
    r.choice = choice;
    r.scaling = "predictive";
    r.head_size_du = kTiny;
    audit.RecordHire(r);
  }
  HireDecisionRecord priced;
  priced.time_tu = 1e300;
  priced.job_id = kMaxId;
  priced.stage = 0;
  priced.threads = -1;
  priced.choice = HireChoice::kHirePublic;
  priced.scaling = "always";
  priced.queue_length = 12;
  priced.head_size_du = 0.1;
  priced.delay_cost = -0.0;
  priced.hire_cost = 1e300;
  priced.next_free_delay_tu = 0.1 + 0.2;
  priced.boot_penalty_tu = 0.5;
  priced.public_core_price = kTiny;
  priced.rework_factor = 1.25;
  audit.RecordHire(priced);

  PlanDecisionRecord empty_plan;
  empty_plan.time_tu = -0.0;
  empty_plan.job_id = 0;
  empty_plan.allocation = "uniform";
  audit.RecordPlan(empty_plan);
  PlanDecisionRecord plan;
  plan.time_tu = 2.5;
  plan.job_id = kMaxId;
  plan.size_du = 1e300;
  plan.allocation = "best-constant";
  plan.plan = {1, 2, 16, -3};
  plan.price_hint = 0.1;
  plan.predicted_exec_tu = kTiny;
  plan.predicted_reward = -1.0 / 3.0;
  audit.RecordPlan(plan);

  const AdmissionOutcome outcomes[] = {AdmissionOutcome::kAdmitted,
                                       AdmissionOutcome::kShed,
                                       AdmissionOutcome::kReleased};
  const double budgets[] = {kInf, 12.5, -0.0, -kInf};
  std::uint64_t tenant = 1;
  for (const double budget : budgets) {
    AdmissionRecord r;
    r.time_tu = 0.1 * static_cast<double>(tenant);
    r.tenant_id = tenant;
    r.job_id = tenant == 4 ? kMaxId : tenant * 100;
    r.outcome = outcomes[tenant % 3];
    r.queue_depth = tenant * 2;
    r.in_flight = tenant;
    r.size_du = tenant == 2 ? kTiny : 1e300;
    r.budget_remaining_tu = budget;
    audit.RecordAdmission(r);
    ++tenant;
  }

  const std::string text =
      ExportToString("golden_audit.jsonl", [](const std::string& path) {
        return DecisionAudit::Global().ExportJsonl(path);
      });
  const std::string golden = R"golden({"type":"hire","t":0,"job":0,"stage":3,"threads":8,"choice":"reuse-idle","scaling":"predictive","queue_length":0,"head_size_du":4.9406564584124654e-324,"delay_cost":null,"hire_cost":null,"next_free_delay_tu":null,"boot_penalty_tu":0,"public_core_price":0,"rework_factor":1}
{"type":"hire","t":0.10000000000000001,"job":1,"stage":3,"threads":8,"choice":"reconfigure","scaling":"predictive","queue_length":0,"head_size_du":4.9406564584124654e-324,"delay_cost":null,"hire_cost":null,"next_free_delay_tu":null,"boot_penalty_tu":0,"public_core_price":0,"rework_factor":1}
{"type":"hire","t":0.20000000000000001,"job":2,"stage":3,"threads":8,"choice":"hire-private","scaling":"predictive","queue_length":0,"head_size_du":4.9406564584124654e-324,"delay_cost":null,"hire_cost":null,"next_free_delay_tu":null,"boot_penalty_tu":0,"public_core_price":0,"rework_factor":1}
{"type":"hire","t":0.30000000000000004,"job":3,"stage":3,"threads":8,"choice":"hire-public","scaling":"predictive","queue_length":0,"head_size_du":4.9406564584124654e-324,"delay_cost":null,"hire_cost":null,"next_free_delay_tu":null,"boot_penalty_tu":0,"public_core_price":0,"rework_factor":1}
{"type":"hire","t":0.40000000000000002,"job":4,"stage":3,"threads":8,"choice":"wait","scaling":"predictive","queue_length":0,"head_size_du":4.9406564584124654e-324,"delay_cost":null,"hire_cost":null,"next_free_delay_tu":null,"boot_penalty_tu":0,"public_core_price":0,"rework_factor":1}
{"type":"hire","t":1.0000000000000001e+300,"job":18446744073709551615,"stage":0,"threads":-1,"choice":"hire-public","scaling":"always","queue_length":12,"head_size_du":0.10000000000000001,"delay_cost":-0,"hire_cost":1.0000000000000001e+300,"next_free_delay_tu":0.30000000000000004,"boot_penalty_tu":0.5,"public_core_price":4.9406564584124654e-324,"rework_factor":1.25}
{"type":"plan","t":-0,"job":0,"size_du":0,"allocation":"uniform","plan":[],"price_hint":0,"predicted_exec_tu":0,"predicted_reward":0}
{"type":"plan","t":2.5,"job":18446744073709551615,"size_du":1.0000000000000001e+300,"allocation":"best-constant","plan":[1,2,16,-3],"price_hint":0.10000000000000001,"predicted_exec_tu":4.9406564584124654e-324,"predicted_reward":-0.33333333333333331}
{"type":"admission","t":0.10000000000000001,"tenant":1,"job":100,"outcome":"shed","queue_depth":2,"in_flight":1,"size_du":1.0000000000000001e+300,"budget_remaining_tu":null}
{"type":"admission","t":0.20000000000000001,"tenant":2,"job":200,"outcome":"released","queue_depth":4,"in_flight":2,"size_du":4.9406564584124654e-324,"budget_remaining_tu":12.5}
{"type":"admission","t":0.30000000000000004,"tenant":3,"job":300,"outcome":"admitted","queue_depth":6,"in_flight":3,"size_du":1.0000000000000001e+300,"budget_remaining_tu":-0}
{"type":"admission","t":0.40000000000000002,"tenant":4,"job":18446744073709551615,"outcome":"shed","queue_depth":8,"in_flight":4,"size_du":1.0000000000000001e+300,"budget_remaining_tu":null}
)golden";
  EXPECT_EQ(text, golden);
  for (const char* bad : {":nan", ":-nan", ":inf", ":-inf"}) {
    EXPECT_EQ(golden.find(bad), std::string::npos) << bad;
  }
}

TEST(ExportGoldenMetricsTest, SketchAndSloBlocksArePinned) {
  QuantileSketch sketch;
  for (int i = 1; i <= 100; ++i) sketch.Observe(0.1 * i);
  sketch.Observe(-0.0);
  sketch.Observe(1e300);
  Slo slo(SloSpec{0.99, 0.1, 0.01}, sketch);
  slo.Observe(kTiny);
  slo.Observe(5.0);
  const std::string golden_sketch = R"golden(# HELP obs_golden_sketch Sketch (TU)
# TYPE obs_golden_sketch summary
obs_golden_sketch{quantile="0.5"} 5.002829575110705
obs_golden_sketch{quantile="0.95"} 9.6796492749632961
obs_golden_sketch{quantile="0.99"} 10.074696689511331
obs_golden_sketch_sum 1.0000000000000001e+300
obs_golden_sketch_count 104
)golden";
  const std::string golden_slo = R"golden(# TYPE obs_golden_slo_good_total counter
obs_golden_slo_good_total 1
# TYPE obs_golden_slo_breach_total counter
obs_golden_slo_breach_total 1
# TYPE obs_golden_slo_objective gauge
obs_golden_slo_objective 0.10000000000000001
# TYPE obs_golden_slo_observed_quantile gauge
obs_golden_slo_observed_quantile 10.074696689511331
# TYPE obs_golden_slo_budget_burn gauge
obs_golden_slo_budget_burn 50
)golden";
  EXPECT_EQ(SketchPrometheusBlock("obs_golden_sketch", "Sketch (TU)", sketch),
            golden_sketch);
  EXPECT_EQ(SloPrometheusBlock("obs_golden_slo", "", slo), golden_slo);
}

TEST(ExportGoldenMetricsTest, ExpositionRendersEdgeValues) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& counter =
      reg.GetCounter("obs_golden_edge_total", "Counter at its maximum");
  counter.Reset();
  counter.Increment(kMaxId);
  reg.GetGauge("obs_golden_edge_negzero", "").Set(-0.0);
  reg.GetGauge("obs_golden_edge_tiny", "Smallest subnormal").Set(kTiny);
  reg.GetGauge("obs_golden_edge_huge", "").Set(1e300);
  reg.GetGauge("obs_golden_edge_tenth", "").Set(0.1);
  Histogram& h = reg.GetHistogram("obs_golden_edge_hist", "Edge bounds",
                                  {1e-7, 0.1, 2.5, 123456789.0, 1e300});
  h.Reset();
  h.Observe(kTiny);
  h.Observe(0.1);
  h.Observe(0.2);
  h.Observe(1e301);

  const std::string prom = reg.PrometheusText();
  const std::string golden_prom = R"golden(# HELP obs_golden_edge_hist Edge bounds
# TYPE obs_golden_edge_hist histogram
obs_golden_edge_hist_bucket{le="1e-07"} 1
obs_golden_edge_hist_bucket{le="0.1"} 2
obs_golden_edge_hist_bucket{le="2.5"} 3
obs_golden_edge_hist_bucket{le="1.23457e+08"} 3
obs_golden_edge_hist_bucket{le="1e+300"} 3
obs_golden_edge_hist_bucket{le="+Inf"} 4
obs_golden_edge_hist_sum 1.0000000000000001e+301
obs_golden_edge_hist_count 4
# TYPE obs_golden_edge_huge gauge
obs_golden_edge_huge 1.0000000000000001e+300
# TYPE obs_golden_edge_negzero gauge
obs_golden_edge_negzero -0
# TYPE obs_golden_edge_tenth gauge
obs_golden_edge_tenth 0.10000000000000001
# HELP obs_golden_edge_tiny Smallest subnormal
# TYPE obs_golden_edge_tiny gauge
obs_golden_edge_tiny 4.9406564584124654e-324
# HELP obs_golden_edge_total Counter at its maximum
# TYPE obs_golden_edge_total counter
obs_golden_edge_total 18446744073709551615
)golden";
  EXPECT_NE(prom.find(golden_prom), std::string::npos) << prom;

  const std::string json = reg.JsonSnapshot();
  const std::string golden_json = R"golden(  "obs_golden_edge_hist": {"sum": 1.0000000000000001e+301, "count": 4, "buckets": [{"le": 1e-07, "count": 1}, {"le": 0.1, "count": 1}, {"le": 2.5, "count": 1}, {"le": 1.23457e+08, "count": 0}, {"le": 1e+300, "count": 0}, {"le": "+Inf", "count": 1}]},
  "obs_golden_edge_huge": 1.0000000000000001e+300,
  "obs_golden_edge_negzero": -0,
  "obs_golden_edge_tenth": 0.10000000000000001,
  "obs_golden_edge_tiny": 4.9406564584124654e-324,
  "obs_golden_edge_total": 18446744073709551615)golden";
  EXPECT_NE(json.find(golden_json), std::string::npos) << json;
}

}  // namespace
}  // namespace scan::obs
