// ExportWriter: the number-format contract (the FormatExact kernel, resp.
// to_chars general with precision 6, byte-identical to "%.17g", resp.
// "%g"), buffer-boundary behaviour, and failure reporting — every exporter
// that streams through the writer must report a full device instead of
// claiming success.

#include "scan/obs/export_writer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "scan/common/str.hpp"
#include "scan/obs/audit.hpp"
#include "scan/obs/metrics.hpp"
#include "scan/obs/session.hpp"
#include "scan/obs/trace.hpp"

namespace scan::obs {
namespace {

constexpr const char* kFullDevice = "/dev/full";

bool HaveFullDevice() {
  std::FILE* f = std::fopen(kFullDevice, "wb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

std::string Render(double value, bool exact) {
  return WriteToString([&](ExportWriter& out) {
    if (exact) {
      out << Exact{value};
    } else {
      out << Label{value};
    }
  });
}

TEST(ExportWriterTest, DoublesMatchPrintfOnEdgeValues) {
  const double edges[] = {0.0,
                          -0.0,
                          5e-324,
                          -5e-324,
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          -std::numeric_limits<double>::max(),
                          1e300,
                          0.1,
                          0.1 + 0.2,
                          1.0 / 3.0,
                          1e16,
                          1e17,
                          123456789012345678.0,
                          1e-5,
                          1e-4,
                          100000.0,
                          999999.5,
                          1e21,
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  for (const double x : edges) {
    EXPECT_EQ(Render(x, true), StrFormat("%.17g", x)) << x;
    EXPECT_EQ(Render(x, false), StrFormat("%g", x)) << x;
  }
}

TEST(ExportWriterTest, DoublesMatchPrintfOnRandomBitPatterns) {
  std::mt19937_64 rng(20150901);
  std::uniform_real_distribution<double> uniform(-1e4, 1e4);
  for (int i = 0; i < 20000; ++i) {
    // Alternate raw bit patterns (every exponent, subnormals, NaN payloads)
    // with values of the magnitude traces actually carry.
    const double x = i % 2 == 0 ? std::bit_cast<double>(rng()) : uniform(rng);
    ASSERT_EQ(Render(x, true), StrFormat("%.17g", x)) << i;
    ASSERT_EQ(Render(x, false), StrFormat("%g", x)) << i;
  }
}

std::string Kernel(double value) {
  char text[kExactMaxChars];
  return std::string(text, FormatExact(text, value));
}

/// The %.17g kernel against printf: random significands over every binary
/// exponent of the fast range and a few beyond it on each side, and
/// decimal-looking values (few digits, so trailing zeros get stripped).
TEST(ExportWriterTest, ExactKernelMatchesPrintfOnSeededValues) {
  std::mt19937_64 rng(20151019);
  std::uniform_int_distribution<int> biased_exponent(1023 - 24, 1023 + 55);
  std::uniform_int_distribution<int> decimals(0, 12);
  std::uniform_int_distribution<std::int64_t> decimal_digits(1, 99'999'999);
  for (int i = 0; i < 3'000'000; ++i) {
    double x = 0.0;
    if (i % 4 != 3) {
      const std::uint64_t mantissa = rng() & ((std::uint64_t{1} << 52) - 1);
      const auto exponent = static_cast<std::uint64_t>(biased_exponent(rng));
      const std::uint64_t sign = (rng() & 1) << 63;
      x = std::bit_cast<double>(sign | (exponent << 52) | mantissa);
    } else {
      x = static_cast<double>(decimal_digits(rng)) /
          std::pow(10.0, decimals(rng));
    }
    ASSERT_EQ(Kernel(x), StrFormat("%.17g", x)) << i;
  }
}

/// Both ends of the fast range, each power of ten and the fixed/exponent
/// layout switch at 1e-4 and 1e-5, each at +-1 and +-2 ulp, both signs.
TEST(ExportWriterTest, ExactKernelMatchesPrintfAtRangeEdges) {
  std::vector<double> anchors = {1e-6, 0x1p52, 1e16, 0.5, 1.0, 2.0};
  for (int k = -8; k <= 17; ++k) anchors.push_back(std::pow(10.0, k));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double anchor : anchors) {
    double below = anchor;
    double above = anchor;
    for (int step = 0; step <= 2; ++step) {
      for (const double x : {below, above, -below, -above}) {
        EXPECT_EQ(Kernel(x), StrFormat("%.17g", x)) << x;
      }
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, kInf);
    }
  }
  EXPECT_EQ(Kernel(0.0), "0");
  EXPECT_EQ(Kernel(-0.0), "-0");
  EXPECT_EQ(Kernel(-0.1), "-0.10000000000000001");
  EXPECT_EQ(Kernel(1.5e-5), "1.5e-05");
}

/// x = odd / 2^j with x in [10^X, 10^(X+1)) has exactly 18 significant
/// digits ending in 5 when j = 17 - X: an exact tie at the 17th digit,
/// which must round half-to-even as printf does.
TEST(ExportWriterTest, ExactKernelRoundsHalfwayTiesToEven) {
  EXPECT_EQ(Kernel(1234567890123456.25), "1234567890123456.2");
  EXPECT_EQ(Kernel(1234567890123456.75), "1234567890123456.8");
  std::mt19937_64 rng(7919);
  int ties = 0;
  for (int exp10 = -6; exp10 <= 15; ++exp10) {
    const int j = 17 - exp10;
    const double lo = std::ceil(std::ldexp(std::pow(10.0, exp10), j));
    const double hi = std::min(std::ldexp(std::pow(10.0, exp10 + 1), j),
                               0x1p53);
    std::uniform_real_distribution<double> numerator(lo, hi);
    for (int i = 0; i < 20000; ++i) {
      const auto odd = static_cast<std::uint64_t>(numerator(rng)) | 1;
      const double x = std::ldexp(static_cast<double>(odd), -j);
      if (x < std::pow(10.0, exp10) || x >= std::pow(10.0, exp10 + 1)) continue;
      ++ties;
      ASSERT_EQ(Kernel(x), StrFormat("%.17g", x)) << exp10 << ' ' << odd;
      ASSERT_EQ(Kernel(-x), StrFormat("%.17g", -x)) << exp10 << ' ' << odd;
    }
  }
  EXPECT_GT(ties, 400000);
}

TEST(ExportWriterTest, IntegersMatchStreamInsertion) {
  std::ostringstream expected;
  expected << std::numeric_limits<std::uint64_t>::max() << ' '
           << std::numeric_limits<std::int64_t>::min() << ' ' << -1 << ' '
           << std::size_t{0} << ' ' << 42u;
  const std::string text = WriteToString([](ExportWriter& out) {
    out << std::numeric_limits<std::uint64_t>::max() << ' '
        << std::numeric_limits<std::int64_t>::min() << ' ' << -1 << ' '
        << std::size_t{0} << ' ' << 42u;
  });
  EXPECT_EQ(text, expected.str());
}

/// Fields straddling every flush point, plus one string longer than the
/// whole buffer, come out intact and in order.
TEST(ExportWriterTest, OutputSurvivesBufferBoundaries) {
  std::string expected;
  const std::string big(ExportWriter::kBufferBytes * 2 + 7, 'x');
  const std::string text = WriteToString([&](ExportWriter& out) {
    for (int i = 0; i < 30000; ++i) {
      out << "{\"i\":" << i << ",\"v\":" << Exact{i * 0.1} << "}\n";
      expected += "{\"i\":" + std::to_string(i) +
                  ",\"v\":" + StrFormat("%.17g", i * 0.1) + "}\n";
      if (i == 12345) {
        out << big;
        expected += big;
      }
    }
  });
  EXPECT_EQ(text.size(), expected.size());
  EXPECT_EQ(text, expected);
}

TEST(ExportWriterTest, FileRoundTripAndCloseIsIdempotent) {
  const std::string path = ::testing::TempDir() + "/export_writer_test.txt";
  ExportWriter out(path);
  out << "a" << 1 << ',' << Exact{0.5} << '\n';
  EXPECT_TRUE(out.Close());
  EXPECT_TRUE(out.Close());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a1,0.5");
  std::remove(path.c_str());
}

TEST(ExportWriterTest, UnopenablePathReportsFailure) {
  ExportWriter out(::testing::TempDir() + "/no/such/dir/file.txt");
  out << "lost";
  EXPECT_FALSE(out.Close());
}

TEST(ExportWriterTest, FullDeviceReportsFailure) {
  if (!HaveFullDevice()) GTEST_SKIP() << kFullDevice << " not available";
  ExportWriter small(kFullDevice);
  small << "one short line\n";  // fails only when flushed at close
  EXPECT_FALSE(small.Close());
  ExportWriter large(kFullDevice);
  for (std::size_t i = 0; i < ExportWriter::kBufferBytes; ++i) large << 'x';
  EXPECT_FALSE(large.Close());  // fails on the first mid-stream flush
}

class ExportFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!HaveFullDevice()) GTEST_SKIP() << kFullDevice << " not available";
    Reset();
  }
  void TearDown() override { Reset(); }
  static void Reset() {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
    DecisionAudit::Global().Disable();
    DecisionAudit::Global().Clear();
  }
};

TEST_F(ExportFailureTest, TraceExportsReportFullDevice) {
  TraceRecorder::Global().Enable();
  TraceEmit(EventKind::kJobArrival, 1.0, 0, 7);
  TraceEmit(EventKind::kStageExec, 2.0, 0, 7, 0, 4.0, 1.5);
  TraceRecorder::Global().Disable();
  EXPECT_FALSE(TraceRecorder::Global().ExportJsonl(kFullDevice));
  EXPECT_FALSE(TraceRecorder::Global().ExportChromeJson(kFullDevice));
}

TEST_F(ExportFailureTest, AuditExportReportsFullDevice) {
  HireDecisionRecord hire;
  hire.scaling = "predictive";
  DecisionAudit::Global().RecordHire(hire);
  EXPECT_FALSE(DecisionAudit::Global().ExportJsonl(kFullDevice));
}

TEST_F(ExportFailureTest, SessionReportsEveryFailedExport) {
  ObsOptions options;
  options.trace_path = kFullDevice;
  options.metrics_path = kFullDevice;
  options.audit_path = kFullDevice;
  ObsSession session(options);
  TraceEmit(EventKind::kJobArrival, 1.0, 0, 7);
  DecisionAudit::Global().RecordHire(HireDecisionRecord{});
  // Metrics are exported even with nothing else registered.
  MetricsRegistry::Global()
      .GetCounter("obs_export_failure_total", "Never incremented")
      .Reset();
  ::testing::internal::CaptureStderr();
  session.Finish();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("obs: failed to write trace to /dev/full"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("obs: failed to write metrics to /dev/full"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("obs: failed to write audit log to /dev/full"),
            std::string::npos)
      << err;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The audit exports on its own thread beside the trace and metrics: a
/// failed audit write is reported for the audit path alone, and the other
/// two files come out exactly as a single-threaded render of the same
/// state.
TEST_F(ExportFailureTest, SessionWritesTraceAndMetricsBesideFailedAudit) {
  const std::string trace_path = ::testing::TempDir() + "/session_trace.jsonl";
  const std::string metrics_path = ::testing::TempDir() + "/session.prom";
  ObsOptions options;
  options.trace_path = trace_path;
  options.metrics_path = metrics_path;
  options.audit_path = kFullDevice;
  ObsSession session(options);
  for (int i = 0; i < 5000; ++i) {
    TraceEmit(EventKind::kStageExec, i * 0.1, 0, static_cast<std::uint64_t>(i),
              1, 4.0, i / 3.0);
    HireDecisionRecord hire;
    hire.time_tu = i * 0.1;
    hire.scaling = "predictive";
    DecisionAudit::Global().RecordHire(hire);
  }
  MetricsRegistry::Global()
      .GetCounter("obs_session_export_total", "Concurrent export test")
      .Increment();
  ::testing::internal::CaptureStderr();
  session.Finish();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err, "obs: failed to write audit log to /dev/full\n");

  const std::string expected_trace_path =
      ::testing::TempDir() + "/session_trace_expected.jsonl";
  ASSERT_TRUE(TraceRecorder::Global().ExportJsonl(expected_trace_path));
  const std::string trace = ReadFile(trace_path);
  EXPECT_EQ(trace.size(), ReadFile(expected_trace_path).size());
  EXPECT_EQ(trace, ReadFile(expected_trace_path));
  EXPECT_NE(trace.find("\"dur\":1666.3333333333333"), std::string::npos);
  const std::string metrics = ReadFile(metrics_path);
  EXPECT_EQ(metrics, WriteToString([](ExportWriter& out) {
              MetricsRegistry::Global().WritePrometheusText(out);
            }));
  EXPECT_NE(metrics.find("obs_session_export_total 1\n"), std::string::npos);
  std::remove(trace_path.c_str());
  std::remove(expected_trace_path.c_str());
  std::remove(metrics_path.c_str());
}

/// With no trace or metrics file to overlap, the session writes the audit
/// on the calling thread; the file and the failure report are unchanged.
TEST_F(ExportFailureTest, SessionWritesAuditAloneInline) {
  const std::string audit_path = ::testing::TempDir() + "/session_audit.jsonl";
  ObsOptions options;
  options.audit_path = audit_path;
  ObsSession session(options);
  for (int i = 0; i < 100; ++i) {
    HireDecisionRecord hire;
    hire.time_tu = i / 3.0;
    hire.scaling = "predictive";
    DecisionAudit::Global().RecordHire(hire);
  }
  ::testing::internal::CaptureStderr();
  session.Finish();
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  const std::string expected_path =
      ::testing::TempDir() + "/session_audit_expected.jsonl";
  ASSERT_TRUE(DecisionAudit::Global().ExportJsonl(expected_path));
  const std::string audit = ReadFile(audit_path);
  EXPECT_FALSE(audit.empty());
  EXPECT_EQ(audit, ReadFile(expected_path));
  std::remove(audit_path.c_str());
  std::remove(expected_path.c_str());

  ObsOptions failing;
  failing.audit_path = kFullDevice;
  ObsSession failing_session(failing);
  DecisionAudit::Global().RecordHire(HireDecisionRecord{});
  ::testing::internal::CaptureStderr();
  failing_session.Finish();
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "obs: failed to write audit log to /dev/full\n");
}

}  // namespace
}  // namespace scan::obs
