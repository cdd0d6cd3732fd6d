#pragma once

// FrozenIndex: the immutable base of the KB's triple store.
//
// TripleStore (triple_store.hpp) is an LSM-style store: this index holds
// every triple up to the last compaction, and a small hash-indexed delta
// holds the triples added since. Compaction folds the delta in: Append
// when its subjects sort last (task logs), else Build from one sorted
// triple vector. The layout:
//
//  * SPO side, span-serving: subjects laid out in ascending id order, each
//    owning a run of its (p, o) pairs in two parallel arrays, stored in
//    fixed-size chunks that later compactions append to in place.
//    Objects(s, p) is an O(1) row lookup (dense-id-indexed) plus a binary
//    search over the subject's few predicates, returning a span — zero
//    allocation, the broker's shard-sizing hot path.
//  * POS side, compressed: per predicate, the sorted distinct objects with
//    each object's subject posting list delta+varbyte encoded into the
//    predicate's PostingPool (RDF-TDAA style). Pattern scans stream through
//    visitors without materializing. Object-only patterns, rare in the
//    broker's queries, gather from every predicate's posting for the
//    object instead of paying for a third (OSP) layout.
//  * A dedicated uncompressed type index (rdf:type object -> instance span)
//    so InstancesOf() is O(log #types) to a span.
//  * Characteristic sets: subjects grouped by their predicate signature,
//    with per-set subject counts — the planner's star-join cardinality
//    source.
//
// Ids are the TermTable's ids (not remapped), and Match() emits triples in
// ascending order of the unbound positions — (p, o) for a bound subject,
// (o, s) for a bound predicate, (s, p) for a bound object, (s, p, o) for a
// full scan — so the store can merge base and delta streams in one pass.
//
// Thread-safety: concurrent reads are safe; Append needs exclusive access.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "scan/common/function_ref.hpp"
#include "scan/kb/term.hpp"
#include "scan/kb/vbyte.hpp"

namespace scan::kb {

class FrozenIndex {
 public:
  FrozenIndex() = default;

  /// Bulk-builds the index from `triples`, which must be sorted by
  /// (s, p, o) and duplicate-free; the vector is consumed. `id_limit`
  /// bounds every raw id in it, and `rdf_type` is the rdf:type id
  /// (kInvalidTermId when absent). O(n log n).
  static FrozenIndex Build(std::vector<Triple> triples, std::uint32_t id_limit,
                           TermId rdf_type);

  /// True if no subject in the index sorts after `s`.
  [[nodiscard]] bool AppendsAt(TermId s) const;

  /// Adds `triples` (sorted by (s, p, o), none already present, the first
  /// subject with AppendsAt) in place: subject rows append — the last row
  /// reopens when its subject continues — and each predicate's
  /// subject lists are re-encoded one predicate at a time. O(n) plus a
  /// sort of the new triples, with transient memory bounded by the
  /// largest predicate; the compaction path for task logs, which always
  /// mint fresh subjects.
  void Append(std::vector<Triple> triples, std::uint32_t id_limit,
              TermId rdf_type);

  // --- Hot-path accessors (zero allocation) ---

  /// Objects o with (s, p, o), ascending. O(1) + O(log deg(s)).
  [[nodiscard]] std::span<const TermId> Objects(TermId s, TermId p) const;

  /// First object for (s, p, *), if any.
  [[nodiscard]] std::optional<TermId> FirstObject(TermId s, TermId p) const;

  /// All subjects with rdf:type == type, ascending. O(log #types).
  [[nodiscard]] std::span<const TermId> InstancesOf(TermId type) const;

  [[nodiscard]] bool Contains(Triple t) const;

  // --- Streaming / materializing accessors ---

  /// Subjects s with (s, p, o), ascending; `fn` returning false stops.
  /// Streams straight out of the compressed posting list.
  void SubjectsVisit(TermId p, TermId o, FunctionRef<bool(TermId)> fn) const;

  /// Materializing counterpart of SubjectsVisit.
  [[nodiscard]] std::vector<TermId> Subjects(TermId p, TermId o) const;

  /// Count of subjects with (s, p, o) without decoding. O(log).
  [[nodiscard]] std::size_t SubjectCount(TermId p, TermId o) const;

  /// Visits every triple matching the pattern in ascending order of its
  /// unbound positions (see the file comment); `fn` returning false stops.
  void Match(const TriplePatternIds& pattern,
             FunctionRef<bool(const Triple&)> fn) const;

  [[nodiscard]] std::vector<Triple> MatchAll(
      const TriplePatternIds& pattern) const;

  // --- Planner statistics ---

  /// Estimated (exact for fully-constant positions) match count for a
  /// pattern; nullopt positions are wildcards.
  [[nodiscard]] std::uint64_t CountEstimate(
      const TriplePatternIds& pattern) const;

  /// Subjects whose characteristic set includes every given predicate
  /// (predicates need not be sorted). The star-join cardinality estimate.
  [[nodiscard]] std::uint64_t CountSubjectsWithPredicates(
      std::span<const TermId> predicates) const;

  /// One characteristic set: a predicate signature shared by
  /// subject_count subjects.
  struct CharacteristicSet {
    std::vector<TermId> predicates;
    std::uint32_t subject_count = 0;
  };

  [[nodiscard]] std::span<const CharacteristicSet> characteristic_sets()
      const {
    return charsets_;
  }

  struct Stats {
    std::size_t triples = 0;
    std::size_t subjects = 0;
    std::size_t predicates = 0;
    std::size_t objects = 0;
    std::size_t characteristic_sets = 0;
    std::size_t compressed_postings_bytes = 0;  // POS subject lists, encoded
    std::size_t raw_posting_values = 0;         // POS subject list entries
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  [[nodiscard]] std::size_t size() const { return stats_.triples; }

 private:
  static constexpr std::uint32_t kNoRow = 0xffffffffu;

  struct PredEntry {
    TermId id = kInvalidTermId;
    std::uint64_t triple_count = 0;
    std::uint32_t distinct_subjects = 0;
    // Sorted distinct objects; list i of `postings` holds the subjects of
    // objects[i].
    std::vector<TermId> objects;
    PostingPool postings;
  };

  /// One subject's (p, o) run: parallel arrays inside one chunk.
  struct Run {
    const TermId* preds = nullptr;
    const TermId* objects = nullptr;
    std::size_t size = 0;
  };

  /// kChunkTriples triples per chunk unless one subject needs more. A
  /// subject's run never straddles two chunks, and a filled chunk never
  /// moves, so Append adds rows without copying the old ones.
  struct Chunk {
    std::vector<TermId> preds;
    std::vector<TermId> objects;
  };
  static constexpr unsigned kChunkShift = 16;
  static constexpr std::size_t kChunkTriples = std::size_t{1} << kChunkShift;

  [[nodiscard]] const PredEntry* Pred(TermId p) const;
  [[nodiscard]] std::uint32_t SubjectRow(TermId s) const;
  [[nodiscard]] Run RowRun(std::uint32_t row) const;
  /// The subjects of (p, o) as a posting view; empty when absent.
  [[nodiscard]] static CompressedPostings Postings(const PredEntry& entry,
                                                   TermId o);
  /// Rebuilds predicate `old` (null when new) with the new triples
  /// [begin, end), all of predicate `p` and sorted by (o, s).
  [[nodiscard]] PredEntry MergePredicate(TermId p, PredEntry* old,
                                         const Triple* begin,
                                         const Triple* end,
                                         std::vector<bool>& object_seen);

  // Subject-major layout. subject_row_ is indexed by raw TermId. A row's
  // position is chunk << kChunkShift | offset, and it ends at the next
  // row's position unless that one opened a new chunk (see RowRun).
  std::vector<std::uint32_t> subject_row_;
  std::vector<TermId> subjects_;              // ascending ids, one per row
  std::vector<std::uint32_t> subject_begin_;  // row -> position; + end
  std::vector<std::uint32_t> subject_charset_;  // row -> charset index
  std::vector<Chunk> chunks_;

  // Predicate-major (compressed) layout, ascending predicate id.
  std::vector<PredEntry> preds_;

  // Type index: rdf:type objects -> instance spans.
  std::vector<TermId> type_ids_;  // ascending type object ids
  std::vector<std::uint32_t> type_begin_;
  std::vector<TermId> type_instances_;

  std::vector<CharacteristicSet> charsets_;
  Stats stats_;
};

}  // namespace scan::kb
