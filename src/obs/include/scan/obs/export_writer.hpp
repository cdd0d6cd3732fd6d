#pragma once

// ExportWriter: the one streaming writer behind every obs exporter (trace
// JSONL and Chrome JSON, decision-audit JSONL, Prometheus text and the
// JSON metrics snapshot).
//
// Fields are formatted straight into a fixed 64 KiB buffer, which is
// flushed with one fwrite whenever it fills: no string is allocated per
// field and no file is ever held whole in memory.
//
// Number-format contract (byte-identical to the printf formats the
// exporters have always used):
//   Exact(x)  FormatExact                      ==  printf("%.17g", x)
//   Label(x)  to_chars(general, precision 6)   ==  printf("%g", x)
//   integers  to_chars, base 10                ==  ostream operator<<
// Raw doubles are rejected at compile time so every call site states which
// of the two renderings it wants.
//
// FormatExact is an exact integer kernel for the doubles exports carry:
// finite, 1e-6 < |x|, with a fractional ulp (binary exponent e < 0, so
// |x| < 2^52). It scales the significand by a power of ten in 128-bit
// integers, rounds the 17th digit half-to-even and applies %g's layout
// rules. ±0 is written directly. Everything else (subnormals and tiny
// values, integers >= 2^52, huge values, inf, NaN) falls back to
// to_chars(general, 17), whose precision path costs about twice as much.
//
// Failure reporting: every fwrite and the final fclose are checked. Close()
// flushes and returns false if opening, any write, or the close failed, so
// exporters return its result. Destroying an unclosed writer (an exception
// unwinding past it) only releases the file and drops what is buffered.

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

namespace scan::obs {

/// A double to be rendered with full round-trip precision ("%.17g").
struct Exact {
  double value;
};

/// Longest printf("%.17g") output: "-1.2345678901234567e-308".
inline constexpr std::size_t kExactMaxChars = 24;

/// Writes printf("%.17g", value) to `out`, which must have room for
/// kExactMaxChars, and returns one past the last character written.
char* FormatExact(char* out, double value);

/// A double to be rendered as a short label ("%g", 6 significant digits),
/// as Prometheus `le` and `quantile` labels are.
struct Label {
  double value;
};

class ExportWriter {
 public:
  static constexpr std::size_t kBufferBytes = std::size_t{64} * 1024;

  /// Streams to a file at `path`, created or truncated. A failed open is
  /// remembered and reported by Close().
  explicit ExportWriter(const std::string& path);
  /// Streams into `*out` (appending), for exposition returned as a string.
  explicit ExportWriter(std::string* out);
  ~ExportWriter();

  ExportWriter(const ExportWriter&) = delete;
  ExportWriter& operator=(const ExportWriter&) = delete;

  ExportWriter& operator<<(std::string_view text) {
    if (text.size() > kBufferBytes - used_) Flush();
    if (text.size() > kBufferBytes) {
      Sink(text.data(), text.size());
      return *this;
    }
    text.copy(buffer_.get() + used_, text.size());
    used_ += text.size();
    return *this;
  }
  ExportWriter& operator<<(const char* text) {
    return *this << std::string_view(text);
  }
  ExportWriter& operator<<(char c) {
    if (used_ == kBufferBytes) Flush();
    buffer_[used_++] = c;
    return *this;
  }
  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char>)
  ExportWriter& operator<<(T value) {
    Reserve(kMaxIntegerChars);
    used_ = static_cast<std::size_t>(
        std::to_chars(buffer_.get() + used_, buffer_.get() + kBufferBytes,
                      value)
            .ptr -
        buffer_.get());
    return *this;
  }
  ExportWriter& operator<<(Exact x) {
    Reserve(kExactMaxChars);
    used_ = static_cast<std::size_t>(
        FormatExact(buffer_.get() + used_, x.value) - buffer_.get());
    return *this;
  }
  ExportWriter& operator<<(Label x) {
    Reserve(kMaxLabelChars);
    used_ = static_cast<std::size_t>(
        std::to_chars(buffer_.get() + used_, buffer_.get() + kBufferBytes,
                      x.value, std::chars_format::general, 6)
            .ptr -
        buffer_.get());
    return *this;
  }
  ExportWriter& operator<<(double) = delete;
  ExportWriter& operator<<(bool) = delete;

  /// Flushes the buffer and closes the sink. True iff the file opened and
  /// every write and the close succeeded. Idempotent.
  [[nodiscard]] bool Close();

 private:
  /// Longest "%g" output: "-1.79769e+308" is 13 chars; 20 digits plus a
  /// sign bound every 64-bit integer.
  static constexpr std::size_t kMaxLabelChars = 16;
  static constexpr std::size_t kMaxIntegerChars = 24;
  void Reserve(std::size_t bytes) {
    if (kBufferBytes - used_ < bytes) Flush();
  }
  void Flush();
  void Sink(const char* data, std::size_t size);

  std::FILE* file_ = nullptr;
  std::string* string_ = nullptr;
  bool ok_ = true;
  bool closed_ = false;
  std::size_t used_ = 0;
  std::unique_ptr<char[]> buffer_;
};

/// Runs `write(out)` against an in-memory writer and returns the text.
template <typename WriteFn>
[[nodiscard]] std::string WriteToString(WriteFn&& write) {
  std::string text;
  ExportWriter out(&text);
  write(out);
  (void)out.Close();
  return text;
}

}  // namespace scan::obs
