#pragma once

// The SCAN knowledge base's RDF triple store, LSM style.
//
// An immutable FrozenIndex base holds every triple up to the last
// compaction; a delta of SPO / POS / OSP hash indexes holds the triples
// added since. Every accessor answers over base ∪ delta (the two are
// disjoint) in ascending id order, merging the base's stream with the
// delta's sorted postings in one pass.
//
// Compaction folds the delta into the base. It runs on every AddBatch (so
// a bulk load builds the base directly), on an Add that pushes the delta
// past 1/kCompactDivisor of the base (and past kCompactFloor triples), and
// on a Remove of a base triple (rare; it keeps the base free of
// tombstones). When every delta subject sorts at or after the base's last
// subject — task logs always mint fresh individuals — the base appends in
// place (FrozenIndex::Append); otherwise base, delta and batch drain into
// one sorted vector and a new base is built from it. The SPARQL engine
// (sparql.hpp) plans from base statistics and scans through these
// accessors.

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "scan/common/function_ref.hpp"
#include "scan/kb/frozen_index.hpp"
#include "scan/kb/term.hpp"

namespace scan::kb {

/// The triple store. Not thread-safe for concurrent mutation; concurrent
/// reads are safe between mutations.
class TripleStore {
 public:
  /// An Add compacts once the delta holds more than base / kCompactDivisor
  /// triples and more than kCompactFloor. A compaction touches the whole
  /// store once, so this amortizes to O(kCompactDivisor) per added triple
  /// while keeping the delta — the costlier structure per triple — a small
  /// fraction of the base.
  static constexpr std::size_t kCompactDivisor = 32;
  static constexpr std::size_t kCompactFloor = 1024;

  TripleStore() = default;

  /// Interns terms through the shared table.
  [[nodiscard]] TermTable& terms() { return terms_; }
  [[nodiscard]] const TermTable& terms() const { return terms_; }

  /// Adds a triple to the delta; returns false if it was already present.
  bool Add(const Term& s, const Term& p, const Term& o);
  bool Add(Triple t);

  /// Bulk insertion: merges the batch, the delta and the base into a new
  /// base in one O(n log n) compaction. Returns the number of triples
  /// actually added (duplicates collapse); an empty batch is a no-op.
  std::size_t AddBatch(std::span<const Triple> triples);

  /// Removes a triple; returns false if absent. Removing a base triple
  /// compacts.
  bool Remove(Triple t);

  /// Folds the delta into the base now.
  void Compact();

  [[nodiscard]] bool Contains(Triple t) const;

  /// Triples in base and delta.
  [[nodiscard]] std::size_t size() const { return base_.size() + delta_size_; }

  /// Triples added since the last compaction.
  [[nodiscard]] std::size_t delta_size() const { return delta_size_; }

  /// The immutable base: the planner's statistics source.
  [[nodiscard]] const FrozenIndex& base() const { return base_; }

  /// Invokes `fn` for every triple matching the pattern, in the order
  /// FrozenIndex::Match documents. `fn` returning false stops the scan.
  void Match(const TriplePatternIds& pattern,
             FunctionRef<bool(const Triple&)> fn) const;

  /// Convenience: collects all matches.
  [[nodiscard]] std::vector<Triple> MatchAll(
      const TriplePatternIds& pattern) const;

  /// Match-count estimate for a pattern: the base's estimate plus the
  /// delta's exact count.
  [[nodiscard]] std::uint64_t CountEstimate(
      const TriplePatternIds& pattern) const;

  /// Objects o with (s, p, o), ascending; `fn` returning false stops.
  void ObjectsVisit(TermId s, TermId p, FunctionRef<bool(TermId)> fn) const;

  /// Subjects s with (s, p, o), ascending; `fn` returning false stops.
  void SubjectsVisit(TermId p, TermId o, FunctionRef<bool(TermId)> fn) const;

  /// Materializing counterparts of the visitors.
  [[nodiscard]] std::vector<TermId> Objects(TermId s, TermId p) const;
  [[nodiscard]] std::vector<TermId> Subjects(TermId p, TermId o) const;

  /// Smallest object for (s, p, *), if any.
  [[nodiscard]] std::optional<TermId> FirstObject(TermId s, TermId p) const;

  /// All distinct subjects with rdf:type == type, ascending.
  [[nodiscard]] std::vector<TermId> InstancesOf(TermId type) const;

 private:
  // key -> postings of the remaining two positions, kept sorted.
  using Postings = std::vector<std::pair<TermId, TermId>>;
  using DeltaIndex = std::unordered_map<std::uint32_t, Postings>;

  [[nodiscard]] bool DeltaContains(Triple t) const;
  void DeltaMatch(const TriplePatternIds& pattern,
                  FunctionRef<bool(const Triple&)> fn) const;
  /// Rebuilds the base from base ∪ delta ∪ `extra` minus `removed`.
  void Rebuild(std::span<const Triple> extra,
               std::optional<Triple> removed = std::nullopt);

  FrozenIndex base_;
  DeltaIndex spo_;  // s -> (p, o)
  DeltaIndex pos_;  // p -> (o, s)
  DeltaIndex osp_;  // o -> (s, p)
  std::size_t delta_size_ = 0;
  TermTable terms_;
};

}  // namespace scan::kb
