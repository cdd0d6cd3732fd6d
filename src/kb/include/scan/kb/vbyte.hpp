#pragma once

// Varbyte-compressed sorted posting lists.
//
// The frozen KB index stores millions of (predicate, object) -> subjects
// posting lists. Raw uint32 arrays cost 4 bytes per id; profile postings
// are dense ascending sequences whose gaps fit one or two bytes, so
// delta + varbyte encoding compresses them ~3-4x (the RDF-TDAA layout).
// The index only ever streams a list front to back (merge joins, merges
// with the delta, compaction), so a list keeps its first value raw and
// every later value as a gap.
//
// All postings are strictly ascending (posting lists are de-duplicated
// sorted id sets), so gaps are >= 1 and encoded as gap - 1.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "scan/common/function_ref.hpp"

namespace scan::kb {

/// A read-only view of one compressed posting list inside a PostingPool.
class CompressedPostings {
 public:
  CompressedPostings() = default;
  CompressedPostings(const std::uint8_t* bytes, std::uint32_t first,
                     std::size_t count, std::size_t byte_size)
      : bytes_(bytes), first_(first), count_(count), byte_size_(byte_size) {}

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Encoded gap bytes (the first value is kept raw).
  [[nodiscard]] std::size_t byte_size() const { return byte_size_; }

  /// Streams every value in ascending order; `fn` returning false stops.
  void ForEach(FunctionRef<bool(std::uint32_t)> fn) const;

  /// Appends all values to `out`.
  void AppendTo(std::vector<std::uint32_t>& out) const;

 private:
  const std::uint8_t* bytes_ = nullptr;
  std::uint32_t first_ = 0;
  std::size_t count_ = 0;
  std::size_t byte_size_ = 0;
};

/// Many immutable compressed posting lists packed into shared storage: a
/// list costs its encoded gaps and a 12-byte head — no per-list
/// allocation, which matters for the KB's many one-subject lists (every
/// eTime literal is unique).
class PostingPool {
 public:
  /// Appends a strictly ascending sequence; returns its list index.
  std::uint32_t Add(const std::uint32_t* values, std::size_t count);

  /// A view of list `list`; valid until the next Add.
  [[nodiscard]] CompressedPostings Get(std::uint32_t list) const;

  /// Encoded gap bytes over all lists.
  [[nodiscard]] std::size_t byte_size() const { return bytes_.size(); }

  /// Sizes the pool for `lists` lists.
  void Reserve(std::size_t lists) { heads_.reserve(lists); }

  /// Releases spare capacity once building is done.
  void ShrinkToFit() { bytes_.shrink_to_fit(); }

 private:
  struct Head {
    std::uint32_t byte_begin = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  std::vector<std::uint8_t> bytes_;
  std::vector<Head> heads_;
};

/// Appends the varbyte encoding of v to out (7 bits per byte, MSB =
/// continuation).
void VbyteEncode(std::uint32_t v, std::vector<std::uint8_t>& out);

/// Decodes one varbyte value starting at bytes[pos]; advances pos.
[[nodiscard]] std::uint32_t VbyteDecode(const std::uint8_t* bytes,
                                        std::size_t& pos);

}  // namespace scan::kb
