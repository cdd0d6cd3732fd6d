#include "scan/kb/vbyte.hpp"

#include <cassert>

namespace scan::kb {

void VbyteEncode(std::uint32_t v, std::vector<std::uint8_t>& out) {
  while (v >= 0x80u) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7u;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t VbyteDecode(const std::uint8_t* bytes, std::size_t& pos) {
  std::uint32_t v = 0;
  unsigned shift = 0;
  for (;;) {
    const std::uint8_t b = bytes[pos++];
    v |= static_cast<std::uint32_t>(b & 0x7fu) << shift;
    if ((b & 0x80u) == 0) return v;
    shift += 7;
  }
}

std::uint32_t PostingPool::Add(const std::uint32_t* values,
                               std::size_t count) {
  const auto list = static_cast<std::uint32_t>(heads_.size());
  heads_.push_back(Head{static_cast<std::uint32_t>(bytes_.size()),
                        count == 0 ? 0 : values[0],
                        static_cast<std::uint32_t>(count)});
  for (std::size_t i = 1; i < count; ++i) {
    assert(values[i] > values[i - 1]);
    VbyteEncode(values[i] - values[i - 1] - 1, bytes_);
  }
  return list;
}

CompressedPostings PostingPool::Get(std::uint32_t list) const {
  const Head& head = heads_[list];
  const std::size_t byte_end =
      list + 1 < heads_.size() ? heads_[list + 1].byte_begin : bytes_.size();
  return CompressedPostings(bytes_.data() + head.byte_begin, head.first,
                            head.count, byte_end - head.byte_begin);
}

void CompressedPostings::ForEach(FunctionRef<bool(std::uint32_t)> fn) const {
  std::size_t pos = 0;
  std::uint32_t value = first_;
  for (std::size_t i = 0; i < count_; ++i) {
    if (i > 0) value += VbyteDecode(bytes_, pos) + 1;
    if (!fn(value)) return;
  }
}

void CompressedPostings::AppendTo(std::vector<std::uint32_t>& out) const {
  out.reserve(out.size() + count_);
  ForEach([&](std::uint32_t v) {
    out.push_back(v);
    return true;
  });
}

}  // namespace scan::kb
