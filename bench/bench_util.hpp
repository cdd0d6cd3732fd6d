#pragma once

// Shared helpers for the exhibit-reproduction binaries: a tiny flag parser
// and common output plumbing. Every bench prints the rows/series of its
// paper table or figure to stdout and optionally saves CSV via --csv=PATH
// or JSON via --json=PATH (an array of {column: value} objects, numbers
// unquoted).

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scan/common/csv.hpp"
#include "scan/common/str.hpp"
#include "scan/obs/session.hpp"

namespace scan::bench {

/// Minimal --flag=value / --flag parser. Each binary declares the flags it
/// reads; the output flags this header reads itself (--csv, --json and the
/// MakeObsSession set) are always known. Any other argument exits 2 with
/// the list of known flags, so a misspelled flag never runs by default.
/// The declared names are kept as views: pass string literals.
class Flags {
 public:
  Flags(int argc, char** argv, std::initializer_list<std::string_view> known)
      : known_(known) {
    known_.insert(known_.end(), std::begin(kSharedFlags),
                  std::end(kSharedFlags));
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (!StartsWith(arg, "--")) {
        std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
        std::exit(2);
      }
      arg.remove_prefix(2);
      const std::size_t eq = arg.find('=');
      const std::string_view name = arg.substr(0, eq);
      if (std::find(known_.begin(), known_.end(), name) == known_.end()) {
        std::fprintf(stderr, "unknown flag: --%.*s\nknown flags:",
                     static_cast<int>(name.size()), name.data());
        for (const std::string_view flag : known_) {
          std::fprintf(stderr, " --%.*s", static_cast<int>(flag.size()),
                       flag.data());
        }
        std::fprintf(stderr, "\n");
        std::exit(2);
      }
      values_.emplace_back(std::string(name),
                           eq == std::string_view::npos
                               ? std::string()
                               : std::string(arg.substr(eq + 1)));
    }
  }

  [[nodiscard]] bool Has(std::string_view name) const {
    for (const auto& [key, _] : values_) {
      if (key == name) return true;
    }
    return false;
  }

  [[nodiscard]] std::string GetString(std::string_view name,
                                      std::string fallback) const {
    for (const auto& [key, value] : values_) {
      if (key == name) return value;
    }
    return fallback;
  }

  [[nodiscard]] double GetDouble(std::string_view name,
                                 double fallback) const {
    for (const auto& [key, value] : values_) {
      if (key == name) {
        const auto parsed = ParseDouble(value);
        if (!parsed) BadValue(name, value, "a number");
        return *parsed;
      }
    }
    return fallback;
  }

  /// Rejects values that are not whole numbers within int range.
  [[nodiscard]] int GetInt(std::string_view name, int fallback) const {
    const double value = GetDouble(name, fallback);
    if (!(value == std::trunc(value) &&
          value >= std::numeric_limits<int>::min() &&
          value <= std::numeric_limits<int>::max())) {
      BadValue(name, GetString(name, ""), "an integer");
    }
    return static_cast<int>(value);
  }

  /// A count: rejects values that are not finite, non-negative whole
  /// numbers within std::uint64_t range. Digits parse exactly; other
  /// numeric spellings (1e6) go through GetDouble.
  [[nodiscard]] std::uint64_t GetCount(std::string_view name,
                                       std::uint64_t fallback) const {
    if (!Has(name)) return fallback;
    const std::string text = GetString(name, "");
    std::uint64_t count = 0;
    const char* end = text.data() + text.size();
    const auto parsed = std::from_chars(text.data(), end, count);
    if (parsed.ec == std::errc() && parsed.ptr == end) return count;
    const double value = GetDouble(name, 0.0);
    // 0x1p64 is 2^64, the first value past the range.
    if (!(value == std::trunc(value) && value >= 0.0 && value < 0x1p64)) {
      BadValue(name, text, "a non-negative integer");
    }
    return static_cast<std::uint64_t>(value);
  }

 private:
  /// The flags Emit and MakeObsSession read.
  static constexpr std::string_view kSharedFlags[] = {
      "csv", "json", "trace", "metrics", "audit", "log-level",
      "trace-capacity"};

  [[noreturn]] static void BadValue(std::string_view name,
                                    std::string_view value,
                                    const char* expected) {
    std::fprintf(stderr, "bad value for --%.*s: expected %s, got '%.*s'\n",
                 static_cast<int>(name.size()), name.data(), expected,
                 static_cast<int>(value.size()), value.data());
    std::exit(2);
  }

  std::vector<std::string_view> known_;
  std::vector<std::pair<std::string, std::string>> values_;
};

/// JSON string literal with the escapes that can appear in table cells.
inline std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

/// Cells that parse as finite numbers are emitted unquoted so downstream
/// tooling (plotting scripts, jq) gets real JSON numbers.
inline std::string JsonCell(const std::string& cell) {
  const auto parsed = ParseDouble(cell);
  if (parsed && std::isfinite(*parsed)) return cell;
  return JsonQuote(cell);
}

/// Serializes the table as an array of {column: value} objects.
inline bool SaveJson(const CsvTable& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t r = 0; r < table.data().size(); ++r) {
    const auto& row = table.data()[r];
    out << "  {";
    for (std::size_t c = 0; c < table.header().size(); ++c) {
      if (c > 0) out << ", ";
      out << JsonQuote(table.header()[c]) << ": " << JsonCell(row[c]);
    }
    out << (r + 1 < table.data().size() ? "},\n" : "}\n");
  }
  out << "]\n";
  return out.good();
}

/// Prints the table and optionally saves CSV per --csv=PATH and JSON per
/// --json=PATH.
inline void Emit(const CsvTable& table, const Flags& flags) {
  table.WritePretty(std::cout);
  const std::string csv_path = flags.GetString("csv", "");
  if (!csv_path.empty()) {
    if (table.SaveCsv(csv_path)) {
      std::cout << "\n[csv saved to " << csv_path << "]\n";
    } else {
      std::cerr << "failed to save CSV to " << csv_path << "\n";
    }
  }
  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    if (SaveJson(table, json_path)) {
      std::cout << "\n[json saved to " << json_path << "]\n";
    } else {
      std::cerr << "failed to save JSON to " << json_path << "\n";
    }
  }
}

/// "mean +- stddev" cell.
inline std::string MeanStd(double mean, double stddev) {
  return StrFormat("%.1f +- %.1f", mean, stddev);
}

/// Observability wiring shared by every bench/example binary:
///   --trace=PATH           trace events (.jsonl = JSONL, else Chrome JSON)
///   --metrics=PATH         metrics (.json = snapshot, else Prometheus text)
///   --audit=PATH           scheduler decision audit (JSONL)
///   --log-level=LEVEL      trace|debug|info|warning|error|off
///   --trace-capacity=N     per-thread trace ring size (events)
/// Construction enables the requested subsystems; exports happen when the
/// returned session leaves scope (keep it alive for the whole run).
[[nodiscard]] inline obs::ObsSession MakeObsSession(const Flags& flags) {
  obs::ObsOptions opts;
  opts.trace_path = flags.GetString("trace", "");
  opts.metrics_path = flags.GetString("metrics", "");
  opts.audit_path = flags.GetString("audit", "");
  opts.log_level = flags.GetString("log-level", "");
  opts.trace_capacity =
      static_cast<std::size_t>(flags.GetCount("trace-capacity", 0));
  return obs::ObsSession(std::move(opts));
}

}  // namespace scan::bench
