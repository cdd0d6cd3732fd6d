#include "scan/kb/term.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "scan/common/str.hpp"

namespace scan::kb {

Term MakeIri(std::string iri) {
  return Term{TermKind::kIri, std::move(iri), ""};
}

Term MakeStringLiteral(std::string value) {
  return Term{TermKind::kLiteral, std::move(value), ""};
}

Term MakeIntLiteral(long long value) {
  return Term{TermKind::kLiteral, std::to_string(value),
              std::string(kXsdInteger)};
}

Term MakeDoubleLiteral(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  std::string lexical = buf;
  // Keep the lexical form unambiguously a double ("10" -> "10.0") so
  // Turtle round trips preserve the datatype.
  if (lexical.find_first_of(".eE") == std::string::npos &&
      lexical.find_first_not_of("-0123456789") == std::string::npos) {
    lexical += ".0";
  }
  return Term{TermKind::kLiteral, std::move(lexical), std::string(kXsdDouble)};
}

Term MakeBlank(std::string label) {
  return Term{TermKind::kBlank, std::move(label), ""};
}

std::optional<double> NumericValue(const Term& term) {
  if (term.kind != TermKind::kLiteral) return std::nullopt;
  // Numeric when explicitly typed, or when an untyped literal parses
  // cleanly as a number (the paper's RDF snippets use untyped numbers,
  // e.g. <scan-ontology:eTime>180</...>).
  return ParseDouble(term.lexical);
}

std::string ToString(const Term& term) {
  switch (term.kind) {
    case TermKind::kIri:
      return "<" + term.lexical + ">";
    case TermKind::kBlank:
      return "_:" + term.lexical;
    case TermKind::kLiteral: {
      std::string out = "\"";
      for (const char c : term.lexical) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      out += '"';
      if (!term.datatype.empty()) {
        out += "^^<" + term.datatype + ">";
      }
      return out;
    }
  }
  return "?";
}

namespace {

/// FNV-1a continued from `h`, so a string hashes the same whole or split.
std::uint64_t Fnv1aFrom(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

/// Namespaces shorter than this stay inline with the local name.
constexpr std::size_t kMinNamespace = 8;

}  // namespace

TermTable::TermTable()
    : entries_(1),  // sentinel for kInvalidTermId
      numbers_(1, 0.0),
      numeric_(1, false),
      affixes_{""},
      affix_ids_{{"", 0}},
      slots_(16, 0) {}

std::pair<std::string_view, std::string_view> TermTable::Split(
    const Term& term) {
  const std::string_view lexical = term.lexical;
  if (term.kind == TermKind::kLiteral) return {term.datatype, lexical};
  if (term.kind == TermKind::kIri) {
    const std::size_t cut = lexical.find_last_of("#/");
    if (cut != std::string_view::npos && cut + 1 >= kMinNamespace) {
      return {lexical.substr(0, cut + 1), lexical.substr(cut + 1)};
    }
  }
  return {std::string_view(), lexical};
}

std::uint64_t TermTable::Hash(TermKind kind, std::string_view affix,
                              std::string_view stored) {
  return Fnv1aFrom(Fnv1aFrom(kFnvOffset, affix), stored) ^
         static_cast<std::uint64_t>(kind);
}

std::string_view TermTable::Stored(const Entry& entry) const {
  return std::string_view(chunks_[entry.chunk])
      .substr(entry.offset, entry.length);
}

std::size_t TermTable::FindSlot(TermKind kind, std::string_view affix,
                                std::string_view stored) const {
  // Linear probing; the load factor stays at or below 3/4, so an empty
  // slot always ends the probe.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = Hash(kind, affix, stored) & mask;; i = (i + 1) & mask) {
    const std::uint32_t id = slots_[i];
    if (id == 0) return i;
    const Entry& e = entries_[id];
    if (static_cast<TermKind>(e.kind) == kind && affixes_[e.affix] == affix &&
        Stored(e) == stored) {
      return i;
    }
  }
}

void TermTable::Rehash(std::size_t capacity) {
  slots_.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::uint32_t id = 1; id < entries_.size(); ++id) {
    const Entry& e = entries_[id];
    std::size_t i =
        Hash(static_cast<TermKind>(e.kind), affixes_[e.affix], Stored(e)) &
        mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = id;
  }
}

TermId TermTable::Intern(const Term& term) {
  const auto [affix, stored] = Split(term);
  const std::size_t slot = FindSlot(term.kind, affix, stored);
  if (slots_[slot] != 0) return TermId{slots_[slot]};

  Entry entry;
  entry.kind = static_cast<std::uint32_t>(term.kind);
  const auto [it, inserted] = affix_ids_.try_emplace(
      std::string(affix), static_cast<std::uint32_t>(affixes_.size()));
  if (inserted) affixes_.emplace_back(affix);
  entry.affix = it->second;
  if (chunks_.empty() ||
      chunks_.back().size() + stored.size() > kChunkBytes) {
    chunks_.emplace_back();
    chunks_.back().reserve(std::max(kChunkBytes, stored.size()));
  }
  entry.chunk = static_cast<std::uint32_t>(chunks_.size() - 1);
  entry.offset = static_cast<std::uint32_t>(chunks_.back().size());
  entry.length = static_cast<std::uint32_t>(stored.size());
  chunks_.back() += stored;

  const std::optional<double> number = NumericValue(term);
  const auto id = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(entry);
  numbers_.push_back(number.value_or(0.0));
  numeric_.push_back(number.has_value());
  if (4 * entries_.size() > 3 * slots_.size()) {
    Rehash(2 * slots_.size());
  } else {
    slots_[slot] = id;
  }
  return TermId{id};
}

std::optional<TermId> TermTable::Lookup(const Term& term) const {
  const auto [affix, stored] = Split(term);
  const std::uint32_t id = slots_[FindSlot(term.kind, affix, stored)];
  if (id == 0) return std::nullopt;
  return TermId{id};
}

Term TermTable::Get(TermId id) const {
  assert(Index(id) != 0 && Index(id) < entries_.size());
  const Entry& e = entries_[Index(id)];
  const std::string& affix = affixes_[e.affix];
  const auto kind = static_cast<TermKind>(e.kind);
  if (kind == TermKind::kLiteral) {
    return Term{kind, std::string(Stored(e)), affix};
  }
  return Term{kind, affix + std::string(Stored(e)), ""};
}

std::optional<double> TermTable::Numeric(TermId id) const {
  if (!numeric_[Index(id)]) return std::nullopt;
  return numbers_[Index(id)];
}

}  // namespace scan::kb
