#pragma once

// Reference implementations of the knowledge base's read paths: the
// differential oracle for scan_kb.
//
//  * ReferenceStore: a never-compacted triple store of SPO / POS / OSP
//    hash indexes with sorted postings — the layout kb::TripleStore keeps
//    only for its delta.
//  * ReferenceQueryEngine: the pattern-at-a-time SPARQL evaluator (greedy
//    most-bound-positions-first ordering, one index probe per row and
//    pattern) — no planner, no statistics.
//  * ReferenceAdviseShardSize: the Data Broker's ranking as SPARQL text
//    (§III-A-2), run through ReferenceQueryEngine; ReferenceProfiles and
//    ReferenceAdviseThreads read profiles attribute by attribute.
//
// A mirror shares the KB store's term ids, so answers compare id-for-id and
// field-for-field with kb::TripleStore / kb::KnowledgeBase.

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "scan/common/function_ref.hpp"
#include "scan/common/status.hpp"
#include "scan/kb/knowledge_base.hpp"
#include "scan/kb/sparql.hpp"
#include "scan/kb/triple_store.hpp"

namespace scan::testkit {

class ReferenceStore {
 public:
  ReferenceStore() = default;

  /// A copy of `store`: the same term table and the same triples.
  static ReferenceStore Mirror(const kb::TripleStore& store);

  [[nodiscard]] kb::TermTable& terms() { return terms_; }
  [[nodiscard]] const kb::TermTable& terms() const { return terms_; }

  /// Adds a triple; returns false if it was already present.
  bool Add(const kb::Term& s, const kb::Term& p, const kb::Term& o);
  bool Add(kb::Triple t);

  /// Removes a triple; returns false if absent.
  bool Remove(kb::Triple t);

  [[nodiscard]] bool Contains(kb::Triple t) const;
  [[nodiscard]] std::size_t size() const { return count_; }

  /// Visits the matches of a pattern through the index of its first bound
  /// position (s, then p, then o; a full scan in ascending subject order).
  void Match(const kb::TriplePatternIds& pattern,
             FunctionRef<bool(const kb::Triple&)> fn) const;
  [[nodiscard]] std::vector<kb::Triple> MatchAll(
      const kb::TriplePatternIds& pattern) const;

  [[nodiscard]] std::vector<kb::TermId> Objects(kb::TermId s,
                                                kb::TermId p) const;
  [[nodiscard]] std::vector<kb::TermId> Subjects(kb::TermId p,
                                                 kb::TermId o) const;
  [[nodiscard]] std::optional<kb::TermId> FirstObject(kb::TermId s,
                                                      kb::TermId p) const;
  [[nodiscard]] std::vector<kb::TermId> InstancesOf(kb::TermId type) const;

 private:
  using Postings = std::vector<std::pair<kb::TermId, kb::TermId>>;

  std::unordered_map<std::uint32_t, Postings> spo_;  // s -> (p, o)
  std::unordered_map<std::uint32_t, Postings> pos_;  // p -> (o, s)
  std::unordered_map<std::uint32_t, Postings> osp_;  // o -> (s, p)
  std::size_t count_ = 0;
  kb::TermTable terms_;
};

/// The pattern-at-a-time SPARQL evaluator over a ReferenceStore.
class ReferenceQueryEngine {
 public:
  explicit ReferenceQueryEngine(const ReferenceStore& store)
      : store_(store) {}

  [[nodiscard]] Result<kb::ResultSet> Execute(
      const kb::SelectQuery& query) const;
  [[nodiscard]] Result<kb::ResultSet> Execute(std::string_view text) const;

 private:
  const ReferenceStore& store_;
};

/// KnowledgeBase::AdviseShardSize as the broker's SPARQL query text.
[[nodiscard]] Result<kb::ShardAdvice> ReferenceAdviseShardSize(
    const ReferenceStore& store, std::string_view application, double min_gb,
    double max_gb);

/// KnowledgeBase::Profiles, read attribute by attribute.
[[nodiscard]] std::vector<kb::ApplicationProfile> ReferenceProfiles(
    const ReferenceStore& store, std::string_view application,
    std::optional<int> stage = std::nullopt);

/// KnowledgeBase::AdviseThreads over ReferenceProfiles.
[[nodiscard]] Result<int> ReferenceAdviseThreads(const ReferenceStore& store,
                                                 std::string_view application,
                                                 int stage);

}  // namespace scan::testkit
