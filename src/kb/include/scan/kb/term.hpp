#pragma once

// RDF terms and term interning for the SCAN knowledge base.
//
// The paper stores application knowledge as OWL/RDF individuals (e.g. the
// GATK1..GATK4 profiles in §III-A) and queries them with SPARQL. This module
// provides the term layer: IRIs, literals (plain / typed), and blank nodes,
// interned into dense 32-bit ids so triples are three ints and index joins
// are integer comparisons.

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace scan::kb {

enum class TermKind : std::uint8_t {
  kIri,
  kLiteral,
  kBlank,
};

/// A decoded RDF term. `datatype` is only meaningful for literals and holds
/// the datatype IRI ("" = plain string literal).
struct Term {
  TermKind kind = TermKind::kIri;
  std::string lexical;   // IRI text, literal value, or blank-node label
  std::string datatype;  // literal datatype IRI, "" for plain

  friend bool operator==(const Term&, const Term&) = default;
};

[[nodiscard]] Term MakeIri(std::string iri);
[[nodiscard]] Term MakeStringLiteral(std::string value);
[[nodiscard]] Term MakeIntLiteral(long long value);
[[nodiscard]] Term MakeDoubleLiteral(double value);
[[nodiscard]] Term MakeBlank(std::string label);

/// Well-known XSD datatype IRIs.
inline constexpr std::string_view kXsdInteger =
    "http://www.w3.org/2001/XMLSchema#integer";
inline constexpr std::string_view kXsdDouble =
    "http://www.w3.org/2001/XMLSchema#double";
inline constexpr std::string_view kXsdString =
    "http://www.w3.org/2001/XMLSchema#string";
inline constexpr std::string_view kRdfType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// If the term is a literal with numeric content, returns its value.
[[nodiscard]] std::optional<double> NumericValue(const Term& term);

/// Canonical N-Triples-ish rendering, used in diagnostics and tests.
[[nodiscard]] std::string ToString(const Term& term);

/// Dense id of an interned term. Id 0 is reserved/invalid.
enum class TermId : std::uint32_t {};

inline constexpr TermId kInvalidTermId{0};

[[nodiscard]] constexpr std::uint32_t Index(TermId id) {
  return static_cast<std::uint32_t>(id);
}

/// Interns Terms to dense TermIds. Append-only: terms are never removed
/// (the knowledge base only grows; see §III-A "knowledge expansion").
///
/// Every task log interns a fresh individual and a fresh eTime literal, so
/// the table is the KB's largest per-profile cost. It stores each term's
/// text once, packed into fixed-size chunks. An IRI keeps only its local
/// name there: its namespace (up to the last '#' or '/') is stored once in
/// a shared affix table, which also holds the literals' datatype IRIs. Ids
/// are found through an open-addressing table of ids.
class TermTable {
 public:
  TermTable();

  /// Returns the id for the term, interning it if new.
  TermId Intern(const Term& term);

  /// Returns the id if the term is already interned.
  [[nodiscard]] std::optional<TermId> Lookup(const Term& term) const;

  /// Decodes an id. Precondition: id was produced by this table.
  [[nodiscard]] Term Get(TermId id) const;

  /// NumericValue(Get(id)), parsed once at interning: O(1).
  [[nodiscard]] std::optional<double> Numeric(TermId id) const;

  [[nodiscard]] std::size_t size() const { return entries_.size() - 1; }

 private:
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 16;

  struct Entry {  // 16 bytes
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
    std::uint32_t affix = 0;  // IRI namespace or literal datatype; 0 = none
    std::uint32_t chunk : 30 = 0;
    std::uint32_t kind : 2 = 0;  // TermKind
  };

  /// The stored part of an entry's text (an IRI's local name).
  [[nodiscard]] std::string_view Stored(const Entry& entry) const;
  /// Splits a term into its affix (namespace or datatype) and stored text.
  [[nodiscard]] static std::pair<std::string_view, std::string_view> Split(
      const Term& term);
  [[nodiscard]] static std::uint64_t Hash(TermKind kind,
                                          std::string_view affix,
                                          std::string_view stored);
  /// Slot holding the term's id, or the empty slot where it would go.
  [[nodiscard]] std::size_t FindSlot(TermKind kind, std::string_view affix,
                                     std::string_view stored) const;
  void Rehash(std::size_t capacity);

  // Deques: appending never copies what is there, so the table grows
  // without transient doubling.
  std::deque<Entry> entries_;      // index 0 is a sentinel
  std::deque<double> numbers_;     // parallel to entries_
  // numeric_[id]: numbers_[id] holds NumericValue. A bitset stays
  // cache-resident, so the advice scan's checks touch one cold line.
  std::vector<bool> numeric_;
  std::vector<std::string> chunks_;  // stored text, kChunkBytes each
  std::vector<std::string> affixes_;  // [0] = ""
  std::unordered_map<std::string, std::uint32_t> affix_ids_;
  std::vector<std::uint32_t> slots_;  // open addressing; 0 = empty
};

/// One RDF statement as interned ids.
struct Triple {
  TermId s = kInvalidTermId;
  TermId p = kInvalidTermId;
  TermId o = kInvalidTermId;

  friend bool operator==(const Triple&, const Triple&) = default;
};

/// A triple pattern: nullopt positions are wildcards.
struct TriplePatternIds {
  std::optional<TermId> s;
  std::optional<TermId> p;
  std::optional<TermId> o;
};

}  // namespace scan::kb
