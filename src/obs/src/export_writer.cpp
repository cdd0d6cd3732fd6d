#include "scan/obs/export_writer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>

namespace scan::obs {

namespace {

__extension__ typedef unsigned __int128 Uint128;

constexpr std::uint64_t kTen16 = 10'000'000'000'000'000;
constexpr std::uint64_t kTen17 = 10 * kTen16;

/// Smallest decimal exponent the kernel handles. 1e-6 itself rounds to a
/// double just below 10^-6 (exponent -7), so the fast range starts above
/// it; with X >= -6 the scaled significand m * 10^(16 - X) stays below
/// 2^53 * 10^22 < 2^127.
constexpr int kMinExp10 = -6;
constexpr double kMinFast = 1e-6;

/// 10^k for k = 16 - X over the kernel's exponents X in [-6, 16].
constexpr std::array<Uint128, 23> kPow10 = [] {
  std::array<Uint128, 23> pow10{};
  pow10[0] = 1;
  for (std::size_t k = 1; k < pow10.size(); ++k) pow10[k] = pow10[k - 1] * 10;
  return pow10;
}();

/// "00" "01" ... "99": two digits per table read.
constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (std::size_t i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

/// Writes the 17 digits of `q` (10^16 <= q < 10^17) to out[0..16].
void Write17Digits(char* out, std::uint64_t q) {
  for (int i = 15; i > 0; i -= 2) {
    const std::size_t pair = 2 * static_cast<std::size_t>(q % 100);
    q /= 100;
    out[i] = kDigitPairs[pair];
    out[i + 1] = kDigitPairs[pair + 1];
  }
  out[0] = static_cast<char>('0' + q);
}

}  // namespace

char* FormatExact(char* out, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const bool negative = (bits >> 63) != 0;
  if ((bits << 1) == 0) {  // ±0
    if (negative) *out++ = '-';
    *out++ = '0';
    return out;
  }
  // value = m * 2^e for a normal double; e < 0 leaves a fractional ulp.
  const int e = static_cast<int>((bits >> 52) & 0x7ff) - 1075;
  if (e >= 0 || !(std::fabs(value) > kMinFast)) {
    return std::to_chars(out, out + kExactMaxChars, value,
                         std::chars_format::general, 17)
        .ptr;
  }
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int shift = -e;  // 1..72 over the fast range

  // X = floor(log10 |value|), estimated from the binary exponent and
  // corrected until the integer part of |value| * 10^(16 - X) has exactly
  // 17 digits. The comparison is exact: floor(v) >= 10^16 iff v >= 10^16.
  int exp10 = std::max(kMinExp10, ((e + 52) * 78913) >> 18);
  Uint128 scaled = 0;
  Uint128 q = 0;
  for (;;) {
    scaled = Uint128{m} * kPow10[static_cast<std::size_t>(16 - exp10)];
    q = scaled >> shift;
    if (q < kTen16) {
      --exp10;
    } else if (q >= kTen17) {
      ++exp10;
    } else {
      break;
    }
    assert(exp10 >= kMinExp10 && exp10 <= 16);
  }
  // Round the dropped bits half-to-even; a carry to 10^17 bumps X.
  std::uint64_t digits = static_cast<std::uint64_t>(q);
  const Uint128 rem = scaled & ((Uint128{1} << shift) - 1);
  const Uint128 half = Uint128{1} << (shift - 1);
  if (rem > half || (rem == half && (digits & 1) != 0)) ++digits;
  if (digits == kTen17) {
    digits = kTen16;
    ++exp10;
  }

  char text[17];
  Write17Digits(text, digits);
  int last = 16;  // last significant digit; text[0] is never '0'
  while (text[last] == '0') --last;

  // %g: fixed notation for -4 <= X < 17, else d.ddd e-XX; trailing zeros
  // and a bare point are dropped. X <= 16 here, so only -6 and -5 take
  // the exponent form.
  if (negative) *out++ = '-';
  if (exp10 < -4) {
    *out++ = text[0];
    if (last > 0) {
      *out++ = '.';
      out = std::copy(text + 1, text + last + 1, out);
    }
    *out++ = 'e';
    *out++ = '-';
    *out++ = '0';
    *out++ = static_cast<char>('0' - exp10);
  } else if (exp10 >= 0) {
    out = std::copy(text, text + exp10 + 1, out);
    if (last > exp10) {
      *out++ = '.';
      out = std::copy(text + exp10 + 1, text + last + 1, out);
    }
  } else {
    *out++ = '0';
    *out++ = '.';
    out = std::fill_n(out, -exp10 - 1, '0');
    out = std::copy(text, text + last + 1, out);
  }
  return out;
}

ExportWriter::ExportWriter(const std::string& path)
    : file_(std::fopen(path.c_str(), "wb")),
      ok_(file_ != nullptr),
      buffer_(std::make_unique_for_overwrite<char[]>(kBufferBytes)) {
  // The writer does its own buffering; stdio's would only add a copy.
  if (file_ != nullptr) std::setvbuf(file_, nullptr, _IONBF, 0);
}

ExportWriter::ExportWriter(std::string* out)
    : string_(out),
      buffer_(std::make_unique_for_overwrite<char[]>(kBufferBytes)) {}

ExportWriter::~ExportWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void ExportWriter::Sink(const char* data, std::size_t size) {
  if (string_ != nullptr) {
    string_->append(data, size);
  } else if (ok_ && std::fwrite(data, 1, size, file_) != size) {
    ok_ = false;
  }
}

void ExportWriter::Flush() {
  Sink(buffer_.get(), used_);
  used_ = 0;
}

bool ExportWriter::Close() {
  if (closed_) return ok_;
  closed_ = true;
  Flush();
  if (file_ != nullptr && std::fclose(file_) != 0) ok_ = false;
  file_ = nullptr;
  return ok_;
}

}  // namespace scan::obs
