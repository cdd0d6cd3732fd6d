// ExportWriter: the number-format contract (to_chars general with precision
// 17, resp. 6, byte-identical to "%.17g", resp. "%g"), buffer-boundary
// behaviour, and failure reporting — every exporter that streams through
// the writer must report a full device instead of claiming success.

#include "scan/obs/export_writer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>

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

}  // namespace
}  // namespace scan::obs
